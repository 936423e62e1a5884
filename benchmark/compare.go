package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

const (
	minPairs = 10
	// landingBound caps the bound -compare judges a metric against at the
	// issue's tenth. BENCHMARK.json gives the timings more, because
	// ten-run sets made at different hours differ by the machine's state;
	// pairs made in alternation share it, so the tighter bound is
	// checkable there — and where it is not, the verdict is "unresolved".
	landingBound = 0.10
)

// ungated are the two CPU-bound readings that could not be made to
// repeat from one set of runs to the next on a shared VM, and so carry
// no bound in BENCHMARK.json; -compare still judges them.
var ungated = []metricDef{
	{"loadgen.sat_msgs_s", "1/s", "higher", landingBound},
	{"loadgen.cpu_us_per_msg", "us", "lower", landingBound},
}

// landingMetrics are the rows -compare prints per workload: the
// end-to-end metrics, bounds capped at landingBound, then the ungated
// readings.
func landingMetrics() []metricDef {
	out := slices.Clone(endToEnd)
	for i := range out {
		out[i].bound = min(out[i].bound, landingBound)
	}
	return append(out, ungated...)
}

// readHistory loads a history file's untraced, full-size runs, correct
// or not, grouped by workload in file order.
func readHistory(path string) (map[string][]historyLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]historyLine{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l historyLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if l.Traced || l.Smoke {
			continue
		}
		runs[l.Workload] = append(runs[l.Workload], l)
	}
	return runs, sc.Err()
}

// verdict applies the landing rule to one workload × metric: parent
// and change are the paired runs' readings, in pair order.
//
//   - gain: the change wins at least nine tenths of the pairs (ties
//     count for neither) and the medians differ by more than the
//     distance between the parent's quartiles;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: either side's quartile distance exceeds the bound, so
//     the bound cannot be checked — unless every run of the change
//     reads better than every run of the parent;
//   - unchanged otherwise.
func verdict(d metricDef, parent, change []float64) string {
	if len(parent) < minPairs {
		return fmt.Sprintf("too few pairs (%d < %d)", len(parent), minPairs)
	}
	sign := d.sign()
	wins := countWins(d, parent, change)
	ps, cs := sortedCopy(parent), sortedCopy(change)
	allBetter := cs[0] > ps[len(ps)-1]
	if d.better == "lower" {
		allBetter = cs[len(cs)-1] < ps[0]
	}
	mp, mc := median(parent), median(change)
	p1, p3 := quartiles(parent)
	c1, c3 := quartiles(change)
	gap := sign * (mc - mp)
	if 10*wins >= 9*len(parent) && gap > p3-p1 {
		return "gain"
	}
	limit := d.bound * math.Abs(mp)
	if !allBetter && (p3-p1 > limit || c3-c1 > limit) {
		return "unresolved"
	}
	if -gap > limit {
		return "regressed"
	}
	return "unchanged"
}

// sign is +1 where a higher reading is better and −1 where a lower one
// is, so that sign × (change − parent) > 0 means the change is better.
func (d metricDef) sign() float64 {
	if d.better == "lower" {
		return -1
	}
	return 1
}

// countWins is the number of pairs in which the change reads better than
// the parent; ties count for neither.
func countWins(d metricDef, parent, change []float64) int {
	wins := 0
	for i := range parent {
		if d.sign()*(change[i]-parent[i]) > 0 {
			wins++
		}
	}
	return wins
}

// pairRuns pairs each run of the parent with the first unused run of
// the change that has the same seed — the same inputs — and keeps the
// pairs of which both sides are correct, in the parent's order. dropped
// counts the runs of either side left without a usable partner.
func pairRuns(parent, change []historyLine) (ps, cs []historyLine, dropped int) {
	bySeed := map[int64][]historyLine{}
	for _, c := range change {
		bySeed[c.Seed] = append(bySeed[c.Seed], c)
	}
	for _, p := range parent {
		queue := bySeed[p.Seed]
		if len(queue) == 0 {
			dropped++
			continue
		}
		c := queue[0]
		bySeed[p.Seed] = queue[1:]
		if !p.Correct || !c.Correct {
			dropped += 2
			continue
		}
		ps, cs = append(ps, p), append(cs, c)
	}
	for _, queue := range bySeed {
		dropped += len(queue)
	}
	return ps, cs, dropped
}

// compareFiles prints one row per workload × metric (the end-to-end
// metrics, then the ungated throughput and CPU readings) for two
// history files: the parent commit's runs and the change's, made in
// alternation and paired by seed.
func compareFiles(parentPath, changePath string, out io.Writer) error {
	parent, err := readHistory(parentPath)
	if err != nil {
		return err
	}
	change, err := readHistory(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-14s %-24s %5s %12s %12s %12s %12s %7s %5s  %s\n",
		"workload", "metric", "pairs", "parent.med", "parent.iqr", "change.med", "change.iqr", "diff%", "wins", "verdict")
	for _, w := range workloads {
		pl, cl, dropped := pairRuns(parent[w.name], change[w.name])
		if dropped > 0 {
			fmt.Fprintf(out, "# %s: %d runs dropped (no run of the same seed on the other side, or one of the pair incorrect)\n", w.name, dropped)
		}
		n := len(pl)
		if n == 0 {
			continue
		}
		for _, d := range landingMetrics() {
			ps, cs := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				ps[i], cs[i] = pl[i].Metrics[d.name], cl[i].Metrics[d.name]
			}
			p1, p3 := quartiles(ps)
			c1, c3 := quartiles(cs)
			mp, mc := median(ps), median(cs)
			fmt.Fprintf(out, "%-14s %-24s %5d %12.4g %12.4g %12.4g %12.4g %+7.2f %2d/%-2d  %s\n",
				w.name, d.name, n, mp, p3-p1, mc, c3-c1, 100*(mc-mp)/mp, countWins(d, ps, cs), n, verdict(d, ps, cs))
		}
	}
	return nil
}
