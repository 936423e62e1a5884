// Command benchmark is the repository's one benchmark: it drives
// in-process netmesh nodes (and chanmux muxes) over loopback TCP from a
// single generator goroutine, in freshly booted rounds of four phases
// (boot + warm, idle, paced, saturated), checks every round's output,
// and prints every metric by name and unit. See README.md.
//
//	go run -C benchmark . --workload fifo-n3 --seed 1 --seconds 20 --trace 0
//	go run -C benchmark . -compare parent.ndjson change.ndjson
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	// A run measures a fixed number of rounds, set by --seconds alone so
	// that both sides of a comparison measure the same number: one round
	// for each roundSeconds (a round takes 2.5–4.5 s on the machine this
	// was built on), never fewer than minRounds nor more than maxRounds.
	roundSeconds = 4
	minRounds    = 3
	maxRounds    = 9
	tracedRounds = 3 // untraced rounds a --trace 1 run measures first
	// A round that has not finished in roundTimeout, or by the time the
	// run is runLimit old, has failed, and a failed round ends the run:
	// a run ends within three minutes whatever happens.
	roundTimeout  = 25 * time.Second
	runLimit      = 150 * time.Second
	outDir        = "out"
	historyFile   = "history.ndjson"
	defaultBudget = 20
)

// measuredRounds is how many rounds a run of the given length measures.
func measuredRounds(seconds int) int {
	return min(max(seconds/roundSeconds, minRounds), maxRounds)
}

// runConfig is one invocation's settings.
type runConfig struct {
	w       workload
	seed    int64
	seconds int  // sets the number of measured rounds (see measuredRounds)
	trace   bool // report the per-layer metrics instead of the end-to-end ones
	smoke   bool // self-test: one measured round of twentieth-size phases
	history string
}

// runResult is what one invocation measured.
type runResult struct {
	metrics   values
	rounds    int
	attempted int
	failed    int
	errs      []string
}

func (r *runResult) correct() bool { return r.failed == 0 && len(r.errs) == 0 && r.rounds > 0 }

// account folds one round's output check into the result and reports
// whether the run may go on.
func (r *runResult) account(name string, rr roundResult, log io.Writer) bool {
	r.attempted += rr.invoked
	r.failed += rr.failed
	if rr.err != nil {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", name, rr.err))
		fmt.Fprintf(log, "# %s: FAILED: %v\n", name, rr.err)
		return false
	}
	return true
}

// runWorkload runs round 0 (discarded: process warm-up, and the full
// specification preflight), then the measured rounds, then — on a
// traced run — one round with Tracer + Metrics on and the layer replay.
// The first failed round ends the run.
func runWorkload(cfg runConfig, log io.Writer) (*runResult, error) {
	w := cfg.w
	res := &runResult{metrics: values{}}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	stop := time.Now().Add(runLimit)
	first := makePlan(w, roundSeed(cfg.seed, 0), true, false)
	buf := newBuffers(len(first.msgs) + 1)
	r0 := runRound(w, first, roundSeed(cfg.seed, 0), roundOpts{preflight: true, stop: stop, parent: -1}, buf, tmp)
	if !res.account("round 0", r0, log) {
		return res, nil
	}
	fmt.Fprintf(log, "# round 0 (discarded): setup %.3f s, preflight of %d messages %.3f s\n", r0.setupS, w.prefix, r0.preflightS)

	want := measuredRounds(cfg.seconds)
	switch {
	case cfg.smoke:
		want = 1
	case cfg.trace:
		want = tracedRounds
	}
	rounds := make([]roundResult, 0, want)
	for k := 1; k <= want; k++ {
		runtime.GC()
		name := fmt.Sprintf("round %d", k)
		rr := runRound(w, makePlan(w, roundSeed(cfg.seed, k), false, false), roundSeed(cfg.seed, k), roundOpts{stop: stop, parent: -1}, buf, tmp)
		if !res.account(name, rr, log) {
			return res, nil
		}
		fmt.Fprintf(log, "# %s: setup %.3f s, idle p50 %.0f us, paced p50/p90 %.0f/%.0f us (generator at most %.0f us late, offered %.3f), sat %.0f msgs/s, %.2f us cpu and %.2f allocs a message\n",
			name, rr.setupS, percentile(rr.idleUs, 0.5), percentile(rr.pacedUs, 0.5), percentile(rr.pacedUs, 0.9), percentile(rr.lateUs, 1), rr.offeredFrac, rr.satMsgsS, rr.cpuUs, rr.allocs)
		rounds = append(rounds, rr)
	}
	res.rounds = len(rounds)
	e2e := endToEndValues(w, rounds)
	layers := counterValues(w, rounds)
	layers["check.preflight_s"] = value{r0.preflightS, 1}

	if cfg.trace {
		sp := &spans{workload: w.name}
		if err := tracedPass(cfg, w, layers, res, buf, tmp, sp, stop, log); err != nil {
			return nil, err
		}
		if err := sp.write(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	layers["loadgen.failed_frac"] = value{float64(res.failed) / float64(max(res.attempted, 1)), res.attempted}
	for name, v := range e2e {
		res.metrics[name] = v
	}
	for name, v := range layers {
		res.metrics[name] = v
	}
	return res, nil
}

// tracedPass is the extra work of a --trace 1 run: one round with the
// observability plane on (its throughput against the untraced median is
// the tracing overhead), ending in a crash-restart where the workload
// asks for one, then the replay of each layer alone.
func tracedPass(cfg runConfig, w workload, layers values, res *runResult, buf *buffers, tmp string, sp *spans, stop time.Time, log io.Writer) error {
	root := sp.begin("traced-round", -1)
	p := makePlan(w, roundSeed(cfg.seed, -1), false, w.crash)
	runtime.GC()
	tr := runRound(w, p, roundSeed(cfg.seed, -1), roundOpts{traced: true, crash: w.crash, stop: stop, spans: sp, parent: root}, buf, tmp)
	sp.end(root)
	if !res.account("traced round", tr, log) {
		return nil
	}
	untraced := layers["loadgen.sat_msgs_s"].v
	layers["obs.trace_overhead_pct"] = value{100 * (untraced - tr.satMsgsS) / untraced, w.sat}
	layers["crash.recover_ms"] = value{tr.recoverMs, 1}
	fmt.Fprintf(log, "# traced round: sat %.0f msgs/s against %.0f untraced\n", tr.satMsgsS, untraced)

	runtime.GC()
	replayed, explainedUs, err := replayLayers(w, cfg.seed, tmp, layers, sp)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	for name, v := range replayed {
		layers[name] = v
	}
	cpu := layers["loadgen.cpu_us_per_msg"].v
	layers["runtime.residual_us_per_msg"] = value{cpu - explainedUs, w.sat}
	fmt.Fprintf(log, "# replayed layers explain %.2f of %.2f us cpu/msg (%.0f%%)\n", explainedUs, cpu, 100*explainedUs/cpu)
	hop := layers["netmesh.mesh_idle_rtt_us"].v / 2
	fmt.Fprintf(log, "# idle path: %d hops of %.0f us make %.0f us, against loadgen.idle_p50_us %.0f us\n",
		w.hops, hop, float64(w.hops)*hop, layers["loadgen.idle_p50_us"].v)
	return nil
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric the run produced by name, value, unit and
// sample count, then the result line: the end-to-end metrics, or on a
// traced run the per-layer ones.
func report(cfg runConfig, res *runResult, out io.Writer) error {
	line := resultLine{Correct: res.correct(), Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]metricOutput{}}
	fmt.Fprintf(out, "%-34s %16s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range group {
			v, ok := res.metrics[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(out, "%-34s %16.4f %-6s %d\n", d.name, v.v, d.unit, v.n)
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		line.Metrics[d.name] = metricOutput{res.metrics[d.name].v, d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "fifo-n3", "workload to run: fifo-n3, causal-n8-wal, sync-n3, keyed-1k or mux-lossy")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", defaultBudget, "run length: one measured round for each 4 s, at least 3 and at most 9")
	trace := fs.Int("trace", 0, "1: add the traced round and the layer replay, report per-layer metrics")
	smoke := fs.Bool("smoke", false, "self-test: one measured round of twentieth-size phases")
	compare := fs.Bool("compare", false, "compare two history files: -compare parent.ndjson change.ndjson")
	history := fs.String("history", filepath.Join(outDir, historyFile), "history file each run appends one line to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare parent.ndjson change.ndjson")
			return 2
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, history: *history}
	if cfg.smoke {
		cfg.w = w.smoke()
	}
	fmt.Fprintf(stdout, "# %s seed %d: %s\n", w.name, cfg.seed, w.why)
	res, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := appendHistory(cfg.history, res, cfg); err != nil {
		fmt.Fprintln(stderr, "benchmark: history:", err)
		return 1
	}
	if err := report(cfg, res, stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !res.correct() {
		errs := append([]string(nil), res.errs...)
		sort.Strings(errs)
		for _, e := range errs {
			fmt.Fprintln(stderr, "benchmark:", e)
		}
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
