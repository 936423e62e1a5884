package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestPercentileMedianQuartiles(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(s); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
	if q1, q3 := quartiles([]float64{160, 10, 80, 20, 40}); q1 != 15 || q3 != 120 {
		t.Errorf("quartiles(10..160) = %v, %v, want 15, 120", q1, q3)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := makePlan(w, 7, true, w.crash), makePlan(w, 7, true, w.crash)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different plans", w.name)
		}
		c := makePlan(w, 8, true, w.crash)
		if reflect.DeepEqual(a.msgs, c.msgs) {
			t.Errorf("%s: seeds 7 and 8 gave the same message list", w.name)
		}
		if !reflect.DeepEqual(a.due, c.due) {
			t.Errorf("%s: due instants depend on the seed", w.name)
		}
		if got, want := len(a.msgs), w.links()+probeCount+w.prefix+w.warm+w.idle+w.paced+w.sat; got < want {
			t.Errorf("%s: plan has %d messages, want at least %d", w.name, got, want)
		}
		for i, m := range a.msgs {
			if m.from == m.to || int(m.from) >= w.procs || int(m.to) >= w.procs || int(m.dom) >= w.domains() {
				t.Fatalf("%s: message %d = %+v is outside the workload's shape", w.name, i, m)
			}
		}
		// One tick is 1 ms and carries rate/1000 messages.
		last := a.due[len(a.due)-1].Seconds()
		if want := float64(w.paced-1) / float64(w.rate); last > want || last < want-0.001 {
			t.Errorf("%s: last paced message due at %.4f s, want within 1 ms below %.4f s", w.name, last, want)
		}
	}
}

func TestCheckOrder(t *testing.T) {
	msgs := []msg{
		{from: 0, to: 1}, {from: 0, to: 1}, {from: 2, to: 1}, {from: 1, to: 0},
		{from: 0, to: 1, dom: 1}, {from: 0, to: 1},
	}
	good := [][]int{{3}, {0, 2, 4, 1, 5}, nil}
	if failed, err := checkOrder(msgs, 2, good); failed != 0 || err != nil {
		t.Fatalf("correct run rejected: %d failed, %v", failed, err)
	}
	cases := map[string]struct {
		seqs [][]int
		want string
	}{
		"swapped pair":    {[][]int{{3}, {1, 0, 2, 4, 5}, nil}, "after message"},
		"duplicate":       {[][]int{{3}, {0, 1, 1, 2, 4, 5}, nil}, "more than once"},
		"missing":         {[][]int{{3}, {0, 1, 2, 4}, nil}, "never delivered"},
		"wrong process":   {[][]int{{3, 2}, {0, 1, 4, 5}, nil}, "delivered at P0"},
		"unknown":         {[][]int{{3}, {0, 1, 2, 4, 5, 99}, nil}, "unknown message"},
		"other domain ok": {[][]int{{3}, {4, 0, 1, 2, 5}, nil}, ""},
	}
	for name, c := range cases {
		failed, err := checkOrder(msgs, 2, c.seqs)
		if c.want == "" {
			if failed != 0 || err != nil {
				t.Errorf("%s: rejected: %d failed, %v", name, failed, err)
			}
			continue
		}
		if failed == 0 || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %d failed, error %v; want a failure mentioning %q", name, failed, err, c.want)
		}
	}
}

func TestSpansSelfTime(t *testing.T) {
	s := &spans{workload: "w"}
	s.list = []span{
		{Name: "root", ID: 0, Parent: -1, StartUs: 0, EndUs: 100},
		{Name: "a", ID: 1, Parent: 0, StartUs: 10, EndUs: 40},
		{Name: "b", ID: 2, Parent: 0, StartUs: 50, EndUs: 60},
		{Name: "a1", ID: 3, Parent: 1, StartUs: 15, EndUs: 20},
	}
	got := s.finish()
	for i, want := range []float64{60, 25, 10, 5} {
		if got[i].SelfUs != want {
			t.Errorf("span %s: self %v us, want %v", got[i].Name, got[i].SelfUs, want)
		}
	}
	var none *spans
	none.end(none.begin("x", -1)) // a nil recorder records nothing
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "m", unit: "us", better: "lower", bound: 0.10}
	flat := func(v float64, jitter ...float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = v
			if len(jitter) > 0 {
				out[i] += jitter[i%len(jitter)]
			}
		}
		return out
	}
	cases := []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"clear gain", flat(100, -1, 0, 1), flat(80, -1, 0, 1), "gain"},
		{"same", flat(100, -1, 0, 1), flat(100.5, -1, 0, 1), "unchanged"},
		{"worse beyond bound", flat(100, -1, 0, 1), flat(115, -1, 0, 1), "regressed"},
		{"too noisy to tell", flat(100, -20, 0, 20), flat(104, -20, 0, 20), "unresolved"},
		{"noisy but every run better", flat(100, -8, 0, 8), flat(50, -8, 0, 8), "gain"},
		{"few pairs", flat(100)[:4], flat(100)[:4], "too few pairs (4 < 10)"},
	}
	for _, c := range cases {
		if got := verdict(lower, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	higher := metricDef{name: "m", unit: "1/s", better: "higher", bound: 0.10}
	if got := verdict(higher, flat(100, -1, 0, 1), flat(80, -1, 0, 1)); got != "regressed" {
		t.Errorf("throughput drop: verdict %q, want regressed", got)
	}
}

// Runs are paired by seed, not by position: a failed or missing run on
// one side drops its pair and leaves the later pairs aligned.
func TestPairRunsBySeed(t *testing.T) {
	line := func(seed int64, correct bool) historyLine { return historyLine{Seed: seed, Correct: correct} }
	parent := []historyLine{line(1, true), line(2, true), line(3, false), line(4, true), line(2, true)}
	change := []historyLine{line(2, true), line(1, true), line(3, true), line(5, true), line(2, true)}
	ps, cs, dropped := pairRuns(parent, change)
	var seeds []int64
	for i := range ps {
		if ps[i].Seed != cs[i].Seed {
			t.Errorf("pair %d joins seeds %d and %d", i, ps[i].Seed, cs[i].Seed)
		}
		seeds = append(seeds, ps[i].Seed)
	}
	if want := []int64{1, 2, 2}; !reflect.DeepEqual(seeds, want) {
		t.Errorf("paired seeds %v, want %v", seeds, want)
	}
	// Seed 3's pair is incorrect (2 runs), seeds 4 and 5 have no partner.
	if dropped != 4 {
		t.Errorf("dropped %d runs, want 4", dropped)
	}
}

func TestMeasuredRounds(t *testing.T) {
	for seconds, want := range map[int]int{1: minRounds, 12: 3, 20: 5, 30: 7, 60: maxRounds} {
		if got := measuredRounds(seconds); got != want {
			t.Errorf("measuredRounds(%d) = %d, want %d", seconds, got, want)
		}
	}
}

// benchmarkJSON mirrors the contract's keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics: outside 2..8 / 1..16 / 1..128", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	if b.RunSeconds != defaultBudget {
		t.Errorf("run_seconds = %d, the -seconds default is %d", b.RunSeconds, defaultBudget)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command = %v, want bash benchmark/run.sh", b.Command)
	} else if _, err := os.Stat("run.sh"); err != nil {
		t.Errorf("the command's script is missing: %v", err)
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the table %q: %q", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the table %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		name(d.name)
		g := b.EndToEnd[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the table %+v", i, g, d)
		}
		if !unitRE.MatchString(d.unit) || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q or bound %v outside the contract", d.name, d.unit, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the table %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		name(d.name)
		g := b.PerLayer[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the table %+v", i, g, d)
		}
		if !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("per-layer %s: unit %q or direction %q outside the contract", d.name, d.unit, d.better)
		}
	}
}

// TestSmoke runs the whole pipeline — boot, preflight, four phases,
// output check, report, history — at a twentieth of the size, once
// plain and once traced with the layer replay.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots loopback meshes")
	}
	for _, c := range []struct{ workload, trace string }{{"fifo-n3", "0"}, {"mux-lossy", "0"}, {"causal-n8-wal", "1"}} {
		var out, errs bytes.Buffer
		history := filepath.Join(t.TempDir(), "history.ndjson")
		code := run([]string{"-smoke", "--workload", c.workload, "--seed", "3", "--trace", c.trace, "-history", history}, &out, &errs)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s%s", c.workload, code, out.String(), errs.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result object: %v", c.workload, err)
		}
		want := endToEnd
		if c.trace == "1" {
			want = perLayer
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
			t.Errorf("%s: result %+v, want a correct run with %d metrics", c.workload, res, len(want))
		}
		for _, d := range want {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: metric %s missing or in unit %q", c.workload, d.name, m.Unit)
			}
		}
		runs, err := readHistory(history)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 0 {
			t.Errorf("%s: smoke runs must not count as comparable history, got %v", c.workload, runs)
		}
		if raw, _ := os.ReadFile(history); !bytes.Contains(raw, []byte(`"go_version"`)) {
			t.Errorf("%s: history line carries no environment stamp: %s", c.workload, raw)
		}
	}
}
