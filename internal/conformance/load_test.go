package conformance

import (
	"testing"
	"time"

	"msgorder/internal/protocols/registry"
)

// loadProto resolves the protocol the smoke tests drive.
func loadProto(t *testing.T, name string) NetProtocol {
	t.Helper()
	e, ok := registry.ByName(name)
	if !ok {
		t.Fatalf("protocol %q missing from the registry", name)
	}
	return NetProtocol{Name: e.Name, Maker: e.Maker, Colors: e.Colors}
}

func TestRunLoadMeshSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket load run")
	}
	res, err := RunLoadMesh(loadProto(t, "tagless"), LoadConfig{Msgs: 300, Seed: 3, Timeout: 60 * time.Second})
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
