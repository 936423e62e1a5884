// Fleet-traced runs: the observability-plane conformance half. A
// loopback TCP mesh runs with per-node tracing on and each node's
// observability surface served over real HTTP; a fleet scraper polls
// the daemons while the workload drains, and the scraped per-node
// traces are merged into one causal fleet timeline. The gate is that
// the merged timeline is a run at all — every receive causally follows
// a send scraped from a *different* node's endpoint, with zero orphans
// — plus complete: every invoked message carries a delivery record.
// Latency attribution and hot-key skew come from the same merged
// timeline, so the numbers the tooling reports are backed by a
// validated reconstruction, not trusted counters.
package conformance

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/fleetobs"
	"msgorder/internal/obs"
	"msgorder/internal/shard"
)

// FleetTraceConfig shapes one fleet-traced mesh run.
type FleetTraceConfig struct {
	// Procs is the mesh size (default 3).
	Procs int
	// Msgs is the workload length (default 200).
	Msgs int
	// Seed drives the workload shape (default 1).
	Seed int64
	// Timeout bounds the drain after the last invoke (default 60s).
	Timeout time.Duration
	// Keys, when nonzero, stamps the workload with that many ordering
	// domains and runs the sharded runtime — the hot-key skew input.
	Keys int
	// TopK is how many heavy-hitter domains the skew report keeps
	// (default 5).
	TopK int
}

func (c FleetTraceConfig) withDefaults() FleetTraceConfig {
	c.Procs, c.Msgs, c.Seed = cmp.Or(c.Procs, 3), cmp.Or(c.Msgs, 200), cmp.Or(c.Seed, 1)
	c.TopK = cmp.Or(c.TopK, 5)
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	return c
}

// FleetTraceResult is one fleet-traced run: the merged-timeline
// validation verdict plus the analyses computed from it.
type FleetTraceResult struct {
	// Protocol is the catalog protocol driven.
	Protocol string `json:"protocol"`
	// Msgs is the workload length; Procs the mesh size.
	Msgs  int `json:"msgs"`
	Procs int `json:"procs"`
	// Events is the merged fleet timeline's record count.
	Events int `json:"events"`
	// Check is the causal validation outcome (Check.Err() == nil is
	// the gate).
	Check fleetobs.Check `json:"check"`
	// Attribution decomposes end-to-end latency across the fleet.
	Attribution fleetobs.Attribution `json:"attribution"`
	// Skew reports per-domain delivery counts for keyed runs.
	Skew fleetobs.SkewReport `json:"skew"`
	// Polls is how many scrape rounds the fleet poller made.
	Polls int `json:"polls"`
	// ElapsedMs is first-invoke→last-delivery wall time.
	ElapsedMs float64 `json:"elapsed_ms"`
}

// RunFleetTraced drives a workload through an instrumented loopback
// mesh, scrapes every node's live observability endpoints (including
// incremental /trace cursors mid-run), merges the scraped traces into
// one causal fleet timeline and validates it. The returned result's
// Check.Err() is nil iff the merged timeline is causally valid with
// zero orphaned receives and every invoked message was delivered.
func RunFleetTraced(p NetProtocol, cfg FleetTraceConfig) (FleetTraceResult, error) {
	cfg = cfg.withDefaults()
	wcfg := NetMatrixConfig{Procs: cfg.Procs, Msgs: cfg.Msgs, Seed: cfg.Seed}
	s := cellSpec{
		name: "fleettrace " + p.Name, procs: cfg.Procs, seed: cfg.Seed, maker: p.Maker,
		openLoop: true, wait: cfg.Timeout, tracer: obs.NewCollector,
	}
	msgs := NetWorkload(wcfg, p.Colors)
	if cfg.Keys > 0 {
		s.name, s.maker = "fleettrace sharded-"+p.Name, shard.New(p.Maker)
		msgs = ShardWorkload(wcfg, p.Colors, cfg.Keys)
	}
	c, err := newCluster(s)
	if err != nil {
		return FleetTraceResult{}, err
	}
	defer c.close()
	urls := make([]string, cfg.Procs)
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return FleetTraceResult{}, fmt.Errorf("fleettrace %s: obs listener: %w", p.Name, err)
		}
		srv := &http.Server{Handler: fleetobs.Mux(c.metrics[i], c.traces[i])}
		go srv.Serve(ln)
		defer srv.Close()
		urls[i] = "http://" + ln.Addr().String()
	}

	fleet := fleetobs.NewFleet(urls)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()
	polls := 0
	scrape := func(what string) error {
		polls++
		if _, _, err := fleet.Poll(ctx); err != nil {
			return fmt.Errorf("fleettrace %s: %s scrape: %w", p.Name, what, err)
		}
		return nil
	}

	start := time.Now()
	err = c.drive([][]event.Message{msgs}, 0, len(msgs), func(r int) error {
		// Scrape mid-run a few times so the incremental cursors are
		// exercised against live daemons, not just the quiesced state.
		if r%(len(msgs)/3+1) != len(msgs)/3 {
			return nil
		}
		return scrape("live")
	})
	if err != nil {
		return FleetTraceResult{}, err
	}
	elapsed := time.Since(start)
	if _, err := c.collect(0, msgs, nil); err != nil {
		return FleetTraceResult{}, err
	}
	// Final scrape picks up everything after the last mid-run cursor.
	if err := scrape("final"); err != nil {
		return FleetTraceResult{}, err
	}

	tl := fleet.Timeline()
	return FleetTraceResult{
		Protocol: p.Name, Msgs: len(msgs), Procs: cfg.Procs,
		Events:      len(tl.Events),
		Check:       tl.Validate(true),
		Attribution: fleetobs.Summarize(fleetobs.Attribute(tl)),
		Skew:        fleetobs.Skew(tl, cfg.TopK),
		Polls:       polls,
		ElapsedMs:   float64(elapsed.Microseconds()) / 1000,
	}, nil
}
