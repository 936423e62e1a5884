// Command mobench regenerates every table and derived experiment of the
// reproduction (see DESIGN.md's experiment index and EXPERIMENTS.md for
// the recorded results):
//
//	mobench table1      # T1: §4.3 classification table over the catalog
//	mobench lemma3      # T2: Lemma 3 equivalences, checked exhaustively
//	mobench protocols   # T3: Theorem 1 empirically — protocol × spec matrix
//	mobench overhead    # E1: tag bytes / control messages / time by protocol
//	mobench scaling     # E2: classifier cost vs predicate size
//	mobench discussion  # E3: the §5 discussion specifications
//	mobench faults      # E9: protocols on a lossy network (fault matrix)
//	mobench trace       # E10: instrumented run -> Chrome trace JSON (Perfetto)
//	mobench crashes     # E11: crash/recovery matrix
//	mobench net         # E12: sim vs loopback-TCP mesh (-smoke -modbin M diffs real
//	                    #      mod processes against the sim)
//	mobench obs         # E15: observability-plane overhead — traced vs untraced
//	                    #      load, scraped fleet timelines, contended locks
//	mobench churn       # E16: membership churn matrix — {join,leave,evict,handoff}
//	                    #      x topology-shaped environments (-smoke is the CI gate)
//	mobench mux         # E17: multiplexed channels — per-channel guarantee levels
//	                    #      over one shared mesh, views vs standalone (-smoke is
//	                    #      the CI gate)
//	mobench all         # every table experiment
//
// E13 (open-loop load) and E14 (ordering-key sharded load) are measured
// by the benchmark module (benchmark/, workloads fifo-n3 and keyed-1k),
// not by mobench.
//
// net, obs, churn and mux check every cell they print and exit non-zero
// on a failing one. The matrices' deterministic results — every
// verdict and view key — are pinned by golden files that tier-1
// compares: T1 and T3b under cmd/mobench/testdata/, the conformance
// matrices under internal/conformance/testdata/. After an intended
// change, rewrite them with
//
//	go test ./internal/conformance/ ./cmd/mobench/ -update
//
// Global flags (before the subcommand):
//
//	-json             emit machine-readable JSON instead of tables
//	                  (explore, overhead, scaling, faults)
//	-cpuprofile f     write a CPU profile to f
//	-memprofile f     write a heap profile to f on exit
//	-mutex-fraction n sample 1/n mutex contention events into the mutex profile
//	-block-rate n     sample goroutine blocking events of ≥ n ns
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"msgorder/internal/catalog"
	"msgorder/internal/check"
	"msgorder/internal/classify"
	"msgorder/internal/conformance"
	"msgorder/internal/dsim"
	"msgorder/internal/event"
	"msgorder/internal/inhib"
	"msgorder/internal/lattice"
	"msgorder/internal/pgraph"
	"msgorder/internal/predicate"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/causal"
	"msgorder/internal/protocols/fifo"
	"msgorder/internal/protocols/registry"
	syncproto "msgorder/internal/protocols/sync"
	"msgorder/internal/protocols/tagless"
	"msgorder/internal/synth"
	"msgorder/internal/transport"
	"msgorder/internal/universe"
	"msgorder/internal/userview"
)

func main() { os.Exit(mainExit(os.Args[1:])) }

// mainExit is main's body with the exit code as a return value, so the
// process-level contract — any failing subcommand (a violated matrix,
// a failed trace validation, bad flags) exits non-zero — is testable.
func mainExit(args []string) int {
	if err := run(args); err != nil {
		fmt.Fprintln(os.Stderr, "mobench:", err)
		return 1
	}
	return 0
}

// options are the global flags shared by all subcommands.
type options struct {
	json       bool
	cpuprofile string
	memprofile string
	mutexFrac  int
	blockRate  int
}

func run(args []string) error {
	fs := flag.NewFlagSet("mobench", flag.ContinueOnError)
	var opt options
	fs.BoolVar(&opt.json, "json", false, "emit JSON instead of tables (explore, overhead, scaling, faults)")
	fs.StringVar(&opt.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&opt.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	fs.IntVar(&opt.mutexFrac, "mutex-fraction", 0, "sample 1/n mutex contention events (0 leaves profiling off)")
	fs.IntVar(&opt.blockRate, "block-rate", 0, "sample blocking events ≥ n ns (0 leaves profiling off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if opt.mutexFrac > 0 {
		runtime.SetMutexProfileFraction(opt.mutexFrac)
	}
	if opt.blockRate > 0 {
		runtime.SetBlockProfileRate(opt.blockRate)
	}
	args = fs.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}

	if opt.cpuprofile != "" {
		f, err := os.Create(opt.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if opt.memprofile != "" {
		defer func() {
			f, err := os.Create(opt.memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mobench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mobench: memprofile:", err)
			}
		}()
	}

	cmds := map[string]func() error{
		"table1":     table1,
		"lemma3":     lemma3,
		"protocols":  protocols,
		"explore":    func() error { return explore(opt.json) },
		"overhead":   func() error { return overhead(opt.json) },
		"broadcast":  broadcastBench,
		"scaling":    func() error { return scaling(opt.json) },
		"discussion": discussion,
		"inhibitory": inhibitory,
		"synthesis":  synthesis,
		"lattice":    latticeBench,
		"faults":     func() error { return faults(opt.json) },
	}
	switch args[0] {
	case "all":
		for _, name := range []string{
			"table1", "lemma3", "protocols", "explore", "overhead",
			"broadcast", "scaling", "discussion", "inhibitory", "synthesis",
			"lattice", "faults",
		} {
			if err := cmds[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Println()
		}
		return nil
	case "trace":
		return traceCmd(args[1:])
	case "crashes":
		return crashesCmd(args[1:])
	case "net":
		return netCmd(args[1:])
	case "obs":
		return obsCmd(args[1:])
	case "churn":
		return churnCmd(args[1:])
	case "mux":
		return muxCmd(args[1:])
	}
	fn, ok := cmds[args[0]]
	if !ok {
		return fmt.Errorf("unknown experiment %q", args[0])
	}
	return fn()
}

// t1Row is one catalog entry of the §4.3 classification table.
type t1Row struct {
	Name, Title, Order string
	Paper, Computed    classify.Class
}

// table1Rows classifies every catalog entry.
func table1Rows() ([]t1Row, error) {
	var rows []t1Row
	for _, e := range catalog.Entries() {
		res, err := classify.Classify(e.Pred)
		if err != nil {
			return nil, err
		}
		order := "-"
		if res.HasCycle {
			order = fmt.Sprint(res.MinOrder)
		}
		rows = append(rows, t1Row{Name: e.Name, Title: e.Title, Order: order, Paper: e.PaperClass, Computed: res.Class})
	}
	return rows, nil
}

// table1 reproduces the §4.3 classification table over the catalog.
func table1() error {
	rows, err := table1Rows()
	if err != nil {
		return err
	}
	printTable1(rows)
	return nil
}

// printTable1 renders T1, paper class against computed class.
func printTable1(rows []t1Row) {
	fmt.Println("== T1: classification table (§4.3) — paper class vs computed class ==")
	fmt.Printf("%-22s %-42s %-6s %-16s %-16s %s\n",
		"name", "title", "order", "paper", "computed", "match")
	mismatches := 0
	for _, r := range rows {
		match := "OK"
		if r.Computed != r.Paper {
			match = "MISMATCH"
			mismatches++
		}
		fmt.Printf("%-22s %-42s %-6s %-16s %-16s %s\n",
			r.Name, r.Title, r.Order, r.Paper, r.Computed, match)
	}
	fmt.Printf("entries: %d, mismatches: %d\n", len(rows), mismatches)
}

// lemma3 checks the Lemma 3 predicate families exhaustively over bounded
// universes.
func lemma3() error {
	fmt.Println("== T2: Lemma 3 — equivalences and unsatisfiability, exhaustive over bounded universes ==")
	b1 := predicate.MustParse("x, y : x.s -> y.r && y.r -> x.r")
	b2 := predicate.MustParse("x, y : x.s -> y.s && y.r -> x.r")
	b3 := predicate.MustParse("x, y : x.s -> y.s && y.s -> x.r")

	total, disagreements := 0, 0
	universe.RunsNoSelf(3, 2, func(r *userview.Run) bool {
		total++
		s1, s2, s3 := check.Satisfies(r, b1), check.Satisfies(r, b2), check.Satisfies(r, b3)
		if s1 != s2 || s2 != s3 {
			disagreements++
		}
		return true
	})
	tables := [][]event.Message{
		{{ID: 0, From: 0, To: 1}, {ID: 1, From: 2, To: 0}, {ID: 2, From: 0, To: 1}},
		{{ID: 0, From: 0, To: 1}, {ID: 1, From: 1, To: 2}, {ID: 2, From: 2, To: 0}},
		{{ID: 0, From: 0, To: 2}, {ID: 1, From: 0, To: 1}, {ID: 2, From: 1, To: 2}},
	}
	for _, msgs := range tables {
		universe.Schedules(msgs, 3, func(r *userview.Run) bool {
			total++
			s1, s2, s3 := check.Satisfies(r, b1), check.Satisfies(r, b2), check.Satisfies(r, b3)
			if s1 != s2 || s2 != s3 {
				disagreements++
			}
			return true
		})
	}
	fmt.Printf("Lemma 3.2 (B1 ⇔ B2 ⇔ B3):      %6d runs without self-messages, %d disagreements\n",
		total, disagreements)

	// The self-message caveat (reproduction finding).
	selfTotal, selfDisagreements := 0, 0
	universe.Runs(2, 1, func(r *userview.Run) bool {
		selfTotal++
		if check.Satisfies(r, b1) != check.Satisfies(r, b2) {
			selfDisagreements++
		}
		return true
	})
	fmt.Printf("  caveat: with self-addressed messages the equivalence FAILS: %d/%d single-process runs disagree\n",
		selfDisagreements, selfTotal)

	asyncPreds := []*predicate.Predicate{
		predicate.MustParse("x, y : x.s -> y.s && y.s -> x.s"),
		predicate.MustParse("x, y : x.s -> y.s && y.r -> x.s"),
		predicate.MustParse("x, y : x.r -> y.s && y.s -> x.r"),
		predicate.MustParse("x, y : x.r -> y.r && y.r -> x.s"),
		predicate.MustParse("x, y : x.r -> y.r && y.r -> x.r"),
	}
	runs, matches := 0, 0
	universe.Runs(3, 2, func(r *userview.Run) bool {
		runs++
		for _, p := range asyncPreds {
			if _, found := check.FindViolation(r, p); found {
				matches++
			}
		}
		return true
	})
	fmt.Printf("Lemma 3.3 (unsatisfiable forms): %6d runs x %d predicates, %d matches (expect 0)\n",
		runs, len(asyncPreds), matches)

	// Lemma 3.1: the crown predicates all contain X_sync.
	crownViol := 0
	syncRuns := 0
	universe.Runs(3, 2, func(r *userview.Run) bool {
		if !r.InSync() {
			return true
		}
		syncRuns++
		for k := 2; k <= 3; k++ {
			if !check.Satisfies(r, catalog.Crown(k)) {
				crownViol++
			}
		}
		return true
	})
	fmt.Printf("Lemma 3.1 (X_sync ⊆ crown-k):    %6d synchronous runs, %d crown matches (expect 0)\n",
		syncRuns, crownViol)
	return nil
}

// protocolList is the fixed presentation order, shared with the mod
// daemon via the protocol registry.
func protocolList() []registry.Entry {
	return registry.Catalog()
}

// specEntry resolves a catalog specification or fails loudly — a typo
// in a hardcoded spec name must not silently test a nil predicate.
func specEntry(name string) (catalog.Entry, error) {
	e, ok := catalog.ByName(name)
	if !ok {
		return catalog.Entry{}, fmt.Errorf("unknown catalog spec %q", name)
	}
	return e, nil
}

// protocols reproduces Theorem 1 empirically: which protocol satisfies
// which specification, and where violations live.
func protocols() error {
	fmt.Println("== T3: Theorem 1 empirically — protocol × specification matrix ==")
	fmt.Println("cell: 'safe(n)' = no violation in n seeds; 'viol@s' = violating seed s found")
	specs := []string{"fifo", "causal-b2", "sync-2"}
	const safeSeeds, huntSeeds = 40, 400

	fmt.Printf("%-12s", "protocol")
	for _, s := range specs {
		fmt.Printf(" %-12s", s)
	}
	fmt.Println(" class")
	for _, p := range protocolList() {
		fmt.Printf("%-12s", p.Name)
		cfg := conformance.Config{
			Maker:       p.Maker,
			Procs:       3,
			InitialMsgs: 10,
			ChainBudget: 10,
			ChainProb:   0.7,
			DelayMax:    40,
		}
		for _, sn := range specs {
			e, err := specEntry(sn)
			if err != nil {
				return err
			}
			v, found, err := conformance.FindsViolation(cfg, huntSeeds, e.Pred)
			if err != nil {
				return err
			}
			if found {
				fmt.Printf(" %-12s", fmt.Sprintf("viol@%d", v.Seed))
			} else {
				_, viols, err := conformance.Sweep(cfg, safeSeeds, e.Pred)
				if err != nil {
					return err
				}
				if len(viols) > 0 {
					fmt.Printf(" %-12s", "viol!")
				} else {
					fmt.Printf(" %-12s", fmt.Sprintf("safe(%d)", safeSeeds))
				}
			}
		}
		class := "general"
		if d, ok := p.Maker().(protocol.Describer); ok {
			class = d.Describe().Class.String()
		}
		fmt.Printf(" %s\n", class)
	}
	fmt.Println("expected shape: each class satisfies its own row and fails every stronger spec;")
	fmt.Println("only the general (control-message) protocol satisfies sync-2.")
	return nil
}

// exploreRow is one protocol's result in the exhaustive-exploration
// experiment, in both table and -json form.
type exploreRow struct {
	Protocol   string         `json:"protocol"`
	Orders     int            `json:"orders"`
	Schedules  int            `json:"schedules"`
	Replays    int            `json:"replays"`
	Pruned     int            `json:"pruned"`
	ElapsedUS  int64          `json:"elapsed_us"`
	Violations map[string]int `json:"violations"`
}

// exploreData runs the triangle workload under every arrival order for
// each catalog protocol and returns one row per protocol.
func exploreData(specs []string) ([]exploreRow, error) {
	preds := make([]*predicate.Predicate, len(specs))
	for i, s := range specs {
		e, err := specEntry(s)
		if err != nil {
			return nil, err
		}
		preds[i] = e.Pred
	}
	var rows []exploreRow
	for _, p := range protocolList() {
		cfg := dsim.ExploreConfig{
			Procs: 3,
			Maker: p.Maker,
			Requests: []dsim.Request{
				{From: 0, To: 2},
				{From: 0, To: 1},
			},
			MakeHook: func() func(event.ProcID, event.MsgID) []dsim.Request {
				fired := false
				return func(q event.ProcID, _ event.MsgID) []dsim.Request {
					if q != 1 || fired {
						return nil
					}
					fired = true
					return []dsim.Request{{From: 1, To: 2}}
				}
			},
		}
		seq := cfg
		seq.Workers = 1
		orders, err := dsim.Explore(seq, func(*dsim.Result) bool { return true })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		counts := make([]int, len(specs))
		st, err := dsim.ExploreWithStats(cfg, func(res *dsim.Result) bool {
			for i, pr := range preds {
				if _, bad := check.FindViolation(res.View, pr); bad {
					counts[i]++
				}
			}
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		row := exploreRow{
			Protocol:   p.Name,
			Orders:     orders,
			Schedules:  st.Schedules,
			Replays:    st.Replays,
			Pruned:     st.DedupHits + st.SleepHits,
			ElapsedUS:  st.Elapsed.Microseconds(),
			Violations: make(map[string]int, len(specs)),
		}
		for i, s := range specs {
			row.Violations[s] = counts[i]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// explore upgrades the seed-based matrix to small-scope model checking:
// the triangle workload (two sends from P0, a relay from P1 to P2) is
// replayed under EVERY network arrival order. The "orders" column is the
// legacy sequential enumeration (Workers: 1); the remaining columns come
// from the default deduplicating search, which covers the same ground in
// "states" distinct final states.
func explore(jsonOut bool) error {
	rows, err := exploreData(exploreSpecs)
	if err != nil {
		return err
	}
	if jsonOut {
		return printJSON(os.Stdout, rows)
	}
	printExplore(rows)
	return nil
}

// exploreSpecs are the T3b columns.
var exploreSpecs = []string{"fifo", "causal-b2"}

// printExplore renders the T3b table.
func printExplore(rows []exploreRow) {
	fmt.Println("== T3b: exhaustive schedule exploration — triangle workload, every arrival order ==")
	fmt.Printf("%-12s %-7s %-7s %-8s %-7s %-10s", "protocol", "orders", "states", "replays", "pruned", "time")
	for _, s := range exploreSpecs {
		fmt.Printf(" %-14s", s)
	}
	fmt.Println()
	for _, row := range rows {
		fmt.Printf("%-12s %-7d %-7d %-8d %-7d %-10s", row.Protocol, row.Orders, row.Schedules,
			row.Replays, row.Pruned,
			(time.Duration(row.ElapsedUS) * time.Microsecond).Round(10*time.Microsecond))
		for _, s := range exploreSpecs {
			if c := row.Violations[s]; c == 0 {
				fmt.Printf(" %-14s", "safe(all)")
			} else {
				fmt.Printf(" %-14s", fmt.Sprintf("viol %d/%d", c, row.Schedules))
			}
		}
		fmt.Println()
	}
	fmt.Println("safe(all) is a proof for this workload, not a sample: no schedule exists")
	fmt.Println("that violates the specification. The deduplicating search visits each")
	fmt.Println("distinct final state once; 'pruned' counts schedules it never replayed.")
}

// overheadRow is one (protocol, system size) cell of the overhead
// experiment, averaged over seeds.
type overheadRow struct {
	Protocol       string  `json:"protocol"`
	Procs          int     `json:"procs"`
	TagBytesPerMsg float64 `json:"tag_bytes_per_msg"`
	CtrlPerMsg     float64 `json:"ctrl_per_msg"`
	Steps          float64 `json:"steps"`
	SimTime        float64 `json:"sim_time"`
}

// overheadData measures protocol cost for every (protocol, procs) pair.
func overheadData() ([]overheadRow, error) {
	var rows []overheadRow
	for _, p := range protocolList() {
		for _, procs := range []int{2, 4, 8} {
			var tagB, ctrl, steps, simTime float64
			const seeds = 10
			for seed := int64(1); seed <= seeds; seed++ {
				res, err := conformance.Run(conformance.Config{
					Maker:       p.Maker,
					Procs:       procs,
					InitialMsgs: 20,
					ChainBudget: 20,
					ChainProb:   0.7,
					Seed:        seed,
				})
				if err != nil {
					return nil, fmt.Errorf("%s procs=%d seed=%d: %w", p.Name, procs, seed, err)
				}
				tagB += res.Stats.TagBytesPerUser()
				ctrl += res.Stats.ControlPerUser()
				steps += float64(res.Steps)
				simTime += float64(res.EndTime)
			}
			rows = append(rows, overheadRow{
				Protocol:       p.Name,
				Procs:          procs,
				TagBytesPerMsg: tagB / seeds,
				CtrlPerMsg:     ctrl / seeds,
				Steps:          steps / seeds,
				SimTime:        simTime / seeds,
			})
		}
	}
	return rows, nil
}

// overhead measures protocol cost: piggyback bytes, control messages,
// simulated latency.
func overhead(jsonOut bool) error {
	rows, err := overheadData()
	if err != nil {
		return err
	}
	if jsonOut {
		return printJSON(os.Stdout, rows)
	}
	fmt.Println("== E1: protocol overhead by system size (20 initial + 20 chained messages, mean of 10 seeds) ==")
	fmt.Printf("%-12s %-6s %-14s %-14s %-12s %-10s\n",
		"protocol", "procs", "tagB/msg", "ctrl/msg", "steps", "simTime")
	for _, row := range rows {
		fmt.Printf("%-12s %-6d %-14.1f %-14.2f %-12.0f %-10.0f\n",
			row.Protocol, row.Procs, row.TagBytesPerMsg, row.CtrlPerMsg, row.Steps, row.SimTime)
	}
	fmt.Println("expected shape: tag bytes grow ~n² for causal-rst, sublinearly for causal-ses;")
	fmt.Println("only sync pays control messages (3/msg) and its latency dominates (serialization).")
	return nil
}

// broadcastBench compares the causal algorithms on broadcast workloads —
// the paper's multicast extension. BSS exists only for broadcasts; RST
// and SES handle them as unicast fans.
func broadcastBench() error {
	fmt.Println("== E4: multicast extension — causal algorithms on broadcast workloads ==")
	fmt.Printf("%-12s %-6s %-14s %-10s\n", "protocol", "procs", "tagB/msg", "violations")
	e, err := specEntry("causal-b2")
	if err != nil {
		return err
	}
	for _, name := range []string{"causal-rst", "causal-ses", "causal-bss"} {
		p, ok := registry.ByName(name)
		if !ok {
			return fmt.Errorf("protocol %q missing from registry", name)
		}
		for _, procs := range []int{4, 8, 16} {
			var tagB float64
			viol := 0
			const seeds = 8
			for seed := int64(1); seed <= seeds; seed++ {
				res, err := conformance.Run(conformance.Config{
					Maker:       p.Maker,
					Procs:       procs,
					InitialMsgs: 6,
					ChainBudget: 6,
					ChainProb:   0.6,
					Seed:        seed,
					Broadcast:   true,
				})
				if err != nil {
					return fmt.Errorf("%s procs=%d seed=%d: %w", p.Name, procs, seed, err)
				}
				tagB += res.Stats.TagBytesPerUser()
				if _, bad := check.FindViolation(res.View, e.Pred); bad {
					viol++
				}
			}
			fmt.Printf("%-12s %-6d %-14.1f %d/%d\n", p.Name, procs, tagB/seeds, viol, seeds)
		}
	}
	fmt.Println("expected shape: all three stay causally ordered; BSS's single O(n) vector")
	fmt.Println("per broadcast undercuts RST's O(n²) matrix as n grows.")
	return nil
}

// scalingRow is one predicate graph's timing in the classifier-scaling
// experiment.
type scalingRow struct {
	Graph        string `json:"graph"`
	Edges        int    `json:"edges"`
	FastUS       int64  `json:"fast_us"`
	ExhaustiveUS int64  `json:"exhaustive_us"`
}

// scaling measures classifier cost against predicate size. Crowns have a
// single simple cycle (enumeration is trivial); dense all-β graphs have
// exponentially many, which is where the polynomial walk-based minimum
// pays off (DESIGN.md ablation 1).
func scaling(jsonOut bool) error {
	var rows []scalingRow
	measure := func(name string, p *predicate.Predicate, reps int) error {
		g := pgraph.New(p)
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, _, ok := g.MinOrder(); !ok {
				return fmt.Errorf("%s: no cycle", name)
			}
		}
		fast := time.Since(start).Microseconds() / int64(reps)
		start = time.Now()
		for i := 0; i < reps; i++ {
			if _, _, ok := g.MinOrderExhaustive(); !ok {
				return fmt.Errorf("%s: no cycle", name)
			}
		}
		exh := time.Since(start).Microseconds() / int64(reps)
		rows = append(rows, scalingRow{Graph: name, Edges: g.NumEdges(), FastUS: fast, ExhaustiveUS: exh})
		return nil
	}
	for _, k := range []int{2, 8, 32, 64} {
		if err := measure(fmt.Sprintf("crown-%d", k), catalog.Crown(k), 20); err != nil {
			return err
		}
	}
	// Dense all-β complete graphs: i.s -> j.r for every ordered pair.
	dense := func(n int) *predicate.Predicate {
		vars := make([]string, n)
		for i := range vars {
			vars[i] = fmt.Sprintf("x%d", i+1)
		}
		b := predicate.NewBuilder(vars...)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					b.Atom(vars[i], predicate.S, vars[j], predicate.R)
				}
			}
		}
		p, err := b.Build()
		if err != nil {
			panic(err)
		}
		return p
	}
	for _, n := range []int{5, 7, 9} {
		if err := measure(fmt.Sprintf("dense-K%d", n), dense(n), 3); err != nil {
			return err
		}
	}
	if jsonOut {
		return printJSON(os.Stdout, rows)
	}
	fmt.Println("== E2: classifier scaling — fast (0-1 BFS) vs exhaustive cycle enumeration ==")
	fmt.Printf("%-12s %-10s %-14s %-14s\n", "graph", "edges", "fast(µs)", "exhaustive(µs)")
	for _, row := range rows {
		fmt.Printf("%-12s %-10d %-14d %-14d\n", row.Graph, row.Edges, row.FastUS, row.ExhaustiveUS)
	}
	fmt.Println("expected shape: exhaustive wins on single-cycle crowns; the walk-based")
	fmt.Println("minimum wins as the simple-cycle count explodes on dense graphs.")
	return nil
}

// inhibitory reproduces Section 3.2 denotationally: the sizes of X_P for
// the four canonical enabled-set protocols over a bounded universe, and
// the mechanical information-condition checks.
func inhibitory() error {
	fmt.Println("== E5: the denotational protocol model (§3.2) over a bounded universe ==")
	msgs := []event.Message{
		{ID: 0, From: 0, To: 1},
		{ID: 1, From: 0, To: 1},
		{ID: 2, From: 1, To: 2},
	}
	fmt.Println("universe: a channel pair plus relay (m0, m1: P0->P1; m2: P1->P2)")
	fmt.Printf("%-16s %-10s %-10s %-10s %-10s\n",
		"protocol", "reachable", "complete", "tagless?", "tagged?")
	for _, p := range []inhib.Protocol{
		inhib.AllEnabled{}, inhib.FIFODelivery{}, inhib.CausalDelivery{}, inhib.SyncGate{},
	} {
		res, err := inhib.Explore(p, msgs, 3)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name(), err)
		}
		tagless := inhib.CheckTaglessCondition(p, res).Holds
		tagged := inhib.CheckTaggedCondition(p, res).Holds
		fmt.Printf("%-16s %-10d %-10d %-10v %-10v\n",
			p.Name(), len(res.Reachable), len(res.Complete), tagless, tagged)
	}
	fmt.Println("expected shape: inhibition shrinks X_P monotonically; FIFO/causal meet the")
	fmt.Println("tagged condition but not the tagless one; the sync gate fails even tagged —")
	fmt.Println("the mechanical face of 'logical synchrony needs control messages'.")
	return nil
}

// synthesis compares generated protocols with the handwritten ones.
func synthesis() error {
	fmt.Println("== E6: protocol synthesis from predicates (companion-paper direction) ==")
	fmt.Printf("%-22s %-14s %-12s %-10s\n", "specification", "strategy", "tagB/msg", "safe?")
	for _, name := range []string{
		"fifo", "local-forward-flush", "causal-b2", "global-forward-flush", "async-a",
	} {
		e, err := specEntry(name)
		if err != nil {
			return err
		}
		maker, plan, err := synth.Generate(e.Pred)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		cfg := conformance.Config{
			Maker:       maker,
			Procs:       3,
			InitialMsgs: 14,
			ChainBudget: 10,
			ChainProb:   0.7,
			Colors: []event.Color{
				event.ColorNone, event.ColorNone, event.ColorNone, event.ColorRed,
			},
		}
		var tagB float64
		safe := true
		const seeds = 10
		for seed := int64(1); seed <= seeds; seed++ {
			cfg.Seed = seed
			res, err := conformance.Run(cfg)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			tagB += res.Stats.TagBytesPerUser()
			if _, bad := check.FindViolation(res.View, e.Pred); bad {
				safe = false
			}
		}
		fmt.Printf("%-22s %-14s %-12.1f %v\n", name, plan.Strategy, tagB/seeds, safe)
	}
	fmt.Println("expected shape: channel-local patterns compile to cheap sequence tags;")
	fmt.Println("global order-1 patterns fall back to full causal enforcement; all safe.")
	return nil
}

// latticeBench prints the empirical inclusion lattice of the core
// specifications over bounded universes — the paper's "specifications as
// subsets of X" picture.
func latticeBench() error {
	fmt.Println("== E7: the specification lattice, empirically ==")
	specs := map[string]*predicate.Predicate{}
	for _, name := range []string{"causal-b2", "fifo", "sync-2", "kweaker-1-channel"} {
		e, err := specEntry(name)
		if err != nil {
			return err
		}
		specs[name] = e.Pred
	}
	for _, procs := range []int{2, 3} {
		lat, err := lattice.Compute(lattice.Config{Msgs: 3, Procs: procs}, specs)
		if err != nil {
			return err
		}
		fmt.Printf("%d processes: ", procs)
		fmt.Println(strings.TrimSpace(strings.ReplaceAll(lat.String(), "\n", "; ")))
	}
	fmt.Println("expected shape: the 3-process lattice is the strict chain")
	fmt.Println("sync ⊂ causal ⊂ fifo ⊂ kweaker; on 2 processes causal and fifo merge")
	fmt.Println("(a classical coincidence the lattice rediscovers).")
	return nil
}

// faultCell is one (protocol, fault plan) cell of the fault matrix,
// summed over seeds.
type faultCell struct {
	Plan           string `json:"plan"`
	Retransmits    int    `json:"retransmits"`
	DupsDropped    int    `json:"dups_dropped"`
	FaultsInjected int    `json:"faults_injected"`
	Violations     int    `json:"violations"`
}

// faultsRow is one protocol's row of the fault matrix.
type faultsRow struct {
	Protocol string      `json:"protocol"`
	Spec     string      `json:"spec"`
	Cells    []faultCell `json:"cells"`
}

// faultsData runs the protocol catalog over every fault plan.
func faultsData() ([]faultsRow, error) {
	plans := []struct {
		name string
		plan transport.FaultPlan
	}{
		{"drop20+dup10", transport.FaultPlan{DropRate: 0.2, DupRate: 0.1}},
		{"drop40", transport.FaultPlan{DropRate: 0.4}},
		{"jitter30", transport.FaultPlan{DelayJitter: 0.3}},
		{"partition", transport.FaultPlan{Partitions: []transport.Partition{
			{A: []event.ProcID{0}, B: []event.ProcID{1, 2}, Heal: 12},
		}}},
	}
	cases := []struct {
		name  string
		maker protocol.Maker
		spec  string
	}{
		{"tagless", tagless.Maker, ""},
		{"fifo", fifo.Maker, "fifo"},
		{"causal-rst", causal.RSTMaker, "causal-b2"},
		{"causal-ses", causal.SESMaker, "causal-b2"},
		{"sync", syncproto.Maker, "sync-2"},
		{"sync-ra", syncproto.RAMaker, "sync-2"},
	}
	const seeds = 3
	var rows []faultsRow
	for _, c := range cases {
		cfg := conformance.Config{
			Maker:       c.maker,
			Procs:       3,
			InitialMsgs: 20,
			ChainBudget: 10,
			ChainProb:   0.6,
		}
		var pred *predicate.Predicate
		specName := "(liveness)"
		if c.spec != "" {
			e, err := specEntry(c.spec)
			if err != nil {
				return nil, err
			}
			pred, specName = e.Pred, c.spec
		}
		planList := make([]transport.FaultPlan, len(plans))
		for i, p := range plans {
			planList[i] = p.plan
		}
		cells, err := conformance.FaultMatrix(cfg, planList, seeds, pred)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		row := faultsRow{Protocol: c.name, Spec: specName}
		for i, cell := range cells {
			row.Cells = append(row.Cells, faultCell{
				Plan:           plans[i].name,
				Retransmits:    cell.Stats.Retransmits,
				DupsDropped:    cell.Stats.DupsDropped,
				FaultsInjected: cell.Stats.FaultsInjected,
				Violations:     cell.Violations,
			})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// faults runs the protocol catalog over a lossy live network: the
// reliable transport sublayer must preserve every specification while
// the fault injector drops, duplicates and partitions transmissions.
func faults(jsonOut bool) error {
	rows, err := faultsData()
	if err != nil {
		return err
	}
	if jsonOut {
		return printJSON(os.Stdout, rows)
	}
	printFaults(rows)
	return nil
}

// printFaults renders the E9 table.
func printFaults(rows []faultsRow) {
	fmt.Println("== E9: lossy network fault matrix — live harness with reliable transport ==")
	fmt.Println("cell: retransmits / dups dropped / faults injected, summed over seeds; 'viol' flags spec violations")
	fmt.Printf("%-12s", "protocol")
	if len(rows) > 0 {
		for _, cell := range rows[0].Cells {
			fmt.Printf(" %-22s", cell.Plan)
		}
	}
	fmt.Println(" spec")
	for _, row := range rows {
		fmt.Printf("%-12s", row.Protocol)
		for _, cell := range row.Cells {
			s := fmt.Sprintf("%d/%d/%d", cell.Retransmits, cell.DupsDropped, cell.FaultsInjected)
			if cell.Violations > 0 {
				s += fmt.Sprintf(" viol:%d", cell.Violations)
			}
			fmt.Printf(" %-22s", s)
		}
		fmt.Printf(" %s\n", row.Spec)
	}
	fmt.Println("expected shape: every cell is violation-free — the transport restores the")
	fmt.Println("paper's reliable-channel axioms, so each protocol's guarantees survive the")
	fmt.Println("faults; retransmit/dup work scales with the injected fault rates.")
}

// discussion classifies the §5 specifications with explanations.
func discussion() error {
	fmt.Println("== E3: §5 discussion specifications ==")
	for _, name := range []string{
		"fifo", "kweaker-1", "local-forward-flush", "global-forward-flush",
		"handoff", "second-before-first",
	} {
		e, err := specEntry(name)
		if err != nil {
			return err
		}
		res, err := classify.Classify(e.Pred)
		if err != nil {
			return err
		}
		fmt.Printf("%s (%s):\n  class: %s (paper: %s)\n", e.Title, e.Name, res.Class, e.PaperClass)
		if e.Notes != "" {
			fmt.Printf("  note: %s\n", e.Notes)
		}
	}
	return nil
}
