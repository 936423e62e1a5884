package conformance

import (
	"testing"
	"time"
)

func TestRunLoadMeshSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket load run")
	}
	res, err := RunLoadMesh(protocols(t, "tagless")[0], LoadConfig{Msgs: 300, Seed: 3, Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Msgs != 300 || res.MsgsPerSec <= 0 {
		t.Fatalf("row = %+v", res)
	}
	if res.P50us > res.P99us {
		t.Fatalf("latency quantiles out of order: %+v", res)
	}
}
