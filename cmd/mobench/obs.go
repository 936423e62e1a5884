// The obs subcommand: E15's observability-overhead audit. The same
// open-loop mesh workload runs untraced and traced (per-node collector
// + registry, the pipeline the fleet plane scrapes) and the throughput
// delta is the cost of turning the lights on. A fleet-traced run then
// scrapes live daemons over HTTP and validates the merged causal
// timeline — the attribution and skew numbers it reports are
// backed by that validation, not trusted counters. Finally a traced
// run repeats with mutex profiling at full sampling and the pprof
// profile is parsed into the named top-contended-lock table. The
// subcommand checks the rows it just built and exits non-zero on
// missing rows, zero throughput, runaway overhead, an invalid fleet
// timeline or an empty lock table.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"msgorder/internal/conformance"
	"msgorder/internal/fleetobs"
)

// defaultObsProtos is the E15 protocol pair: one tagged-channel and one
// tagged-causal protocol, the classes whose inhibition spans the
// attribution decomposes.
const defaultObsProtos = "fifo,causal-rst"

// obsOverheadRow compares untraced and traced mesh throughput for one
// protocol. The two arms are interleaved (untraced, traced, untraced,
// ...) after a discarded warmup run, and each arm reports its best of
// -runs attempts: interleaving keeps slow drifts in machine load from
// landing entirely on one arm, and best-of-n keeps scheduler noise out
// of the delta.
type obsOverheadRow struct {
	Protocol        string
	Msgs            int
	Runs            int
	UntracedMsgsSec float64
	TracedMsgsSec   float64
	// OverheadPct is the throughput lost to tracing, in percent
	// (negative values are measurement noise on a faster traced run).
	OverheadPct float64
	TracedP50us int64
	TracedP99us int64
}

// obsLockRow is one named entry of the top-contended-lock table parsed
// from the runtime mutex profile.
type obsLockRow struct {
	Site    string
	DelayUS int64
	Count   int64
}

// obsBench is the E15 payload.
type obsBench struct {
	// Overhead is the traced-vs-untraced throughput table.
	Overhead []obsOverheadRow
	// Fleet is the scraped, merged, causally validated fleet run.
	Fleet conformance.FleetTraceResult
	// FleetKeyed repeats it on the sharded runtime with a keyed
	// workload, populating the skew report.
	FleetKeyed conformance.FleetTraceResult
	// MutexFraction is the sampling rate the contention capture ran at.
	MutexFraction int
	// Contention is the named top-contended-lock table.
	Contention []obsLockRow
}

// obsConfig shapes one E15 data collection.
type obsConfig struct {
	protos    []string
	load      conformance.LoadConfig
	runs      int
	fleetMsgs int
	keys      int
	mutexFrac int
}

// measureOverhead runs one protocol's overhead cell: a discarded
// warmup, then runs interleaved untraced/traced pairs, keeping the best
// throughput per arm. The first run after a process starts (or after
// another protocol's runs) is reliably slower — connection setup, page
// faults, branch warmup — so it is burned rather than measured.
func measureOverhead(p conformance.NetProtocol, cfg conformance.LoadConfig, runs int) (untraced, traced conformance.LoadResult, err error) {
	if _, err = conformance.RunLoadMesh(p, cfg); err != nil {
		return untraced, traced, fmt.Errorf("warmup: %w", err)
	}
	tcfg := cfg
	tcfg.Traced = true
	for i := 0; i < runs; i++ {
		u, uerr := conformance.RunLoadMesh(p, cfg)
		if uerr != nil {
			return untraced, traced, fmt.Errorf("untraced: %w", uerr)
		}
		if u.MsgsPerSec > untraced.MsgsPerSec {
			untraced = u
		}
		tr, terr := conformance.RunLoadMesh(p, tcfg)
		if terr != nil {
			return untraced, traced, fmt.Errorf("traced: %w", terr)
		}
		if tr.MsgsPerSec > traced.MsgsPerSec {
			traced = tr
		}
	}
	return untraced, traced, nil
}

// obsData collects the E15 payload: overhead rows per protocol, the
// validated fleet runs, and the contention table from a mutex-profiled
// traced run.
func obsData(cfg obsConfig) (obsBench, error) {
	var out obsBench
	protos, err := conformance.Protocols(cfg.protos...)
	if err != nil {
		return out, err
	}

	for _, p := range protos {
		untraced, traced, err := measureOverhead(p, cfg.load, cfg.runs)
		if err != nil {
			return out, fmt.Errorf("obs overhead %s: %w", p.Name, err)
		}
		out.Overhead = append(out.Overhead, obsOverheadRow{
			Protocol:        p.Name,
			Msgs:            untraced.Msgs,
			Runs:            cfg.runs,
			UntracedMsgsSec: untraced.MsgsPerSec,
			TracedMsgsSec:   traced.MsgsPerSec,
			OverheadPct:     (1 - traced.MsgsPerSec/untraced.MsgsPerSec) * 100,
			TracedP50us:     traced.P50us,
			TracedP99us:     traced.P99us,
		})
	}

	// The fleet runs add live HTTP scraping on top of tracing and gate
	// on the merged timeline's causal validity.
	fcfg := conformance.FleetTraceConfig{
		Procs: cfg.load.Procs, Msgs: cfg.fleetMsgs,
		Seed: cfg.load.Seed, Timeout: cfg.load.Timeout,
	}
	out.Fleet, err = conformance.RunFleetTraced(protos[len(protos)-1], fcfg)
	if err != nil {
		return out, fmt.Errorf("obs fleet: %w", err)
	}
	kcfg := fcfg
	kcfg.Keys = cfg.keys
	out.FleetKeyed, err = conformance.RunFleetTraced(protos[0], kcfg)
	if err != nil {
		return out, fmt.Errorf("obs fleet keyed: %w", err)
	}

	// Contention capture: a separate traced pass with the mutex
	// profiler at cfg.mutexFrac, kept out of the overhead measurements
	// above so sampling cost does not inflate the tracing delta.
	out.MutexFraction = cfg.mutexFrac
	prev := runtime.SetMutexProfileFraction(cfg.mutexFrac)
	tcfg := cfg.load
	tcfg.Traced = true
	_, lerr := conformance.RunLoadMesh(protos[len(protos)-1], tcfg)
	var buf bytes.Buffer
	perr := pprof.Lookup("mutex").WriteTo(&buf, 1)
	runtime.SetMutexProfileFraction(prev)
	if lerr != nil {
		return out, fmt.Errorf("obs contention run: %w", lerr)
	}
	if perr != nil {
		return out, fmt.Errorf("obs mutex profile: %w", perr)
	}
	sites, err := fleetobs.ParseContention(&buf)
	if err != nil {
		return out, fmt.Errorf("obs contention parse: %w", err)
	}
	for _, s := range fleetobs.TopContended(sites, 8) {
		out.Contention = append(out.Contention, obsLockRow{Site: s.Frame, DelayUS: s.DelayUS, Count: s.Count})
	}
	return out, nil
}

// Err reports the payload's first failed check, or nil: every
// overhead row shows nonzero throughput, both fleet timelines validate
// causally and saw cross-process traffic, the keyed run produced a
// skew report, and the contention table names at least one lock site.
// The overhead ratio is obsCmd's gate, not this one: it is a timing.
func (b obsBench) Err() error {
	if len(b.Overhead) == 0 {
		return fmt.Errorf("no overhead rows")
	}
	for _, r := range b.Overhead {
		if r.UntracedMsgsSec <= 0 || r.TracedMsgsSec <= 0 {
			return fmt.Errorf("%s reports zero throughput", r.Protocol)
		}
	}
	for name, res := range map[string]conformance.FleetTraceResult{
		"fleet": b.Fleet, "fleet keyed": b.FleetKeyed,
	} {
		if err := res.Check.Err(); err != nil {
			return fmt.Errorf("%s timeline invalid: %w", name, err)
		}
		if res.Check.Receives == 0 {
			return fmt.Errorf("%s timeline saw no cross-process traffic", name)
		}
	}
	if b.FleetKeyed.Skew.Deliveries == 0 {
		return fmt.Errorf("keyed fleet run produced no skew report")
	}
	if len(b.Contention) == 0 {
		return fmt.Errorf("contention table is empty (mutex fraction %d)", b.MutexFraction)
	}
	return nil
}

// obsCmd runs E15:
//
//	mobench obs            # print and check the overhead / attribution / lock tables
func obsCmd(args []string) error {
	fs := flag.NewFlagSet("mobench obs", flag.ContinueOnError)
	msgs := fs.Int("msgs", 10000, "open-loop workload length per overhead run")
	runs := fs.Int("runs", 3, "interleaved untraced/traced pairs per protocol; best per arm wins")
	seed := fs.Int64("seed", 5, "workload seed")
	procs := fs.Int("procs", 3, "mesh size")
	protos := fs.String("protos", defaultObsProtos, "comma-separated protocol list")
	fleetMsgs := fs.Int("fleet-msgs", 200, "workload length for the scraped fleet runs")
	keys := fs.Int("keys", 8, "ordering domains for the keyed fleet run")
	mutexFrac := fs.Int("mutex-fraction", 1, "mutex profile sampling rate for the contention capture")
	timeout := fs.Duration("timeout", 60*time.Second, "drain deadline per run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := obsConfig{
		protos:    strings.Split(*protos, ","),
		load:      conformance.LoadConfig{Procs: *procs, Msgs: *msgs, Seed: *seed, Timeout: *timeout},
		runs:      *runs,
		fleetMsgs: *fleetMsgs,
		keys:      *keys,
		mutexFrac: *mutexFrac,
	}
	rows, err := obsData(cfg)
	if err != nil {
		return err
	}
	fmt.Println("== E15: observability-plane overhead — traced vs untraced mesh load ==")
	fmt.Printf("%-12s %14s %14s %9s %10s %10s\n",
		"protocol", "untraced m/s", "traced m/s", "overhead", "t.p50(µs)", "t.p99(µs)")
	for _, r := range rows.Overhead {
		fmt.Printf("%-12s %14.0f %14.0f %8.1f%% %10d %10d\n",
			r.Protocol, r.UntracedMsgsSec, r.TracedMsgsSec, r.OverheadPct, r.TracedP50us, r.TracedP99us)
	}
	for _, fr := range []conformance.FleetTraceResult{rows.Fleet, rows.FleetKeyed} {
		kind := "fleet"
		if fr.Skew.Deliveries > 0 {
			kind = "fleet keyed"
		}
		fmt.Printf("\n%s (%s, %d msgs, %d procs): %d events, check: ", kind, fr.Protocol, fr.Msgs, fr.Procs, fr.Events)
		if err := fr.Check.Err(); err != nil {
			fmt.Printf("INVALID (%v)\n", err)
		} else {
			fmt.Println("causally valid, zero orphans")
		}
		a := fr.Attribution
		fmt.Printf("  attribution over %d msgs: total p50/p99 %d/%d µs — inhibit %.1f%%, transport %.1f%%, queue %.1f%%\n",
			a.Msgs, a.Total.P50, a.Total.P99, a.Inhibit.Share*100, a.Transport.Share*100, a.Queue.Share*100)
		if fr.Skew.Deliveries > 0 {
			fmt.Printf("  skew: %d domains, max share %.1f%%\n", fr.Skew.Keys, fr.Skew.MaxShare*100)
		}
	}
	fmt.Printf("\ntop contended locks (mutex profile, fraction %d)\n", rows.MutexFraction)
	for _, c := range rows.Contention {
		fmt.Printf("  %-56s %12d µs %8d\n", c.Site, c.DelayUS, c.Count)
	}
	fmt.Println("expected shape: tracing overhead well under 15%; both fleet timelines")
	fmt.Println("causally valid with zero orphaned receives; a short lock table —")
	fmt.Println("batching keeps the node lock uncontended, so what remains is the")
	fmt.Println("mesh connection-writer locks.")
	if err := rows.Err(); err != nil {
		return err
	}
	// The recorded expectation is ≤15%; the gate allows scheduler noise
	// on loaded CI boxes without passing a real regression.
	for _, r := range rows.Overhead {
		if r.OverheadPct > 50 {
			return fmt.Errorf("%s tracing overhead %.1f%% (gate: 50%%)", r.Protocol, r.OverheadPct)
		}
	}
	return nil
}
