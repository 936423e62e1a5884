package conformance

import "testing"

// TestFleetTraceSmoke is the observability-plane acceptance gate: a
// 3-process instrumented loopback mesh is scraped live over HTTP, and
// the per-node traces merged into one fleet timeline must be causally
// valid (zero orphaned receives, every receive dominating a scraped
// send stamp) and complete (every invoked message delivered). The
// latency attribution computed from the same timeline must cover every
// message.
func TestFleetTraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a socket mesh with HTTP scraping")
	}
	p := protocols(t, "causal-rst")[0]
	res, err := RunFleetTraced(p, FleetTraceConfig{Procs: 3, Msgs: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check.Err(); err != nil {
		t.Fatalf("merged fleet timeline invalid: %v", err)
	}
	if res.Check.Receives == 0 || res.Check.Delivers == 0 {
		t.Fatalf("timeline saw no cross-process traffic: %+v", res.Check)
	}
	if res.Attribution.Msgs != res.Msgs {
		t.Fatalf("attributed %d of %d messages", res.Attribution.Msgs, res.Msgs)
	}
	if res.Attribution.Total.P50 <= 0 {
		t.Fatalf("end-to-end p50 = %d, want > 0", res.Attribution.Total.P50)
	}
	if res.Polls < 2 {
		t.Fatalf("fleet poller made %d scrapes, want live + final", res.Polls)
	}
	if res.Skew.Deliveries != 0 {
		t.Fatalf("unkeyed run produced a skew report: %+v", res.Skew)
	}
}

// TestFleetTraceKeyedSkew runs the sharded runtime under the fleet
// tracer: the merged timeline must stay causally valid, and the skew
// report must see every ordering domain the workload stamped.
func TestFleetTraceKeyedSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a socket mesh with HTTP scraping")
	}
	p := protocols(t, "fifo")[0]
	res, err := RunFleetTraced(p, FleetTraceConfig{Procs: 3, Msgs: 90, Seed: 3, Keys: 6, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check.Err(); err != nil {
		t.Fatalf("keyed fleet timeline invalid: %v", err)
	}
	if res.Skew.Keys != 6 {
		t.Fatalf("skew saw %d ordering domains, want 6", res.Skew.Keys)
	}
	if res.Skew.Deliveries != res.Msgs {
		t.Fatalf("skew counted %d keyed deliveries, want %d", res.Skew.Deliveries, res.Msgs)
	}
	if len(res.Skew.Top) != 3 {
		t.Fatalf("top-K = %d entries, want 3", len(res.Skew.Top))
	}
	// Round-robin stamping spreads load evenly: the heaviest domain
	// cannot dominate.
	if res.Skew.MaxShare > 0.5 {
		t.Fatalf("uniform workload reported max share %v", res.Skew.MaxShare)
	}
}
