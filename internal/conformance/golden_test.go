package conformance

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares a matrix's deterministic projection — one line
// per cell, the cell's name first — with testdata/<name>.golden, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := goldenDiff(string(want), got); err != nil {
		t.Errorf("%s differs (go test ./internal/conformance/ ./cmd/mobench/ -update rewrites it):\n%v", path, err)
	}
}

// goldenDiff names every cell whose line differs between want and got,
// and every cell only one of them holds.
func goldenDiff(want, got string) error {
	wantLine := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(want), "\n") {
		id, _, _ := strings.Cut(l, " ")
		wantLine[id] = l
	}
	var bad []string
	for _, l := range strings.Split(strings.TrimSpace(got), "\n") {
		id, _, _ := strings.Cut(l, " ")
		if w, ok := wantLine[id]; !ok || w != l {
			bad = append(bad, fmt.Sprintf("%s\n  golden: %s\n     got: %s", id, w, l))
		}
		delete(wantLine, id)
	}
	for id := range wantLine {
		bad = append(bad, id+": in the golden file but not in this run")
	}
	if len(bad) > 0 {
		slices.Sort(bad)
		return fmt.Errorf("%d cells differ:\n%s", len(bad), strings.Join(bad, "\n"))
	}
	return nil
}

// viewField renders a cell's compared view keys: one key when they
// match, both when they do not.
func viewField(ref, got string) string {
	if ref == got {
		return "view=" + got
	}
	return "ref=" + ref + " got=" + got
}

// protocols resolves registry names (none = the catalog) into matrix
// inputs.
func protocols(t *testing.T, names ...string) []NetProtocol {
	t.Helper()
	ps, err := Protocols(names...)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestGoldenDiffNamesSwappedCell is the golden comparison's mutation
// check: a NetMatrix cell that produced another protocol's view (its
// protocol swapped) must fail the comparison, which must name that
// cell and no other.
func TestGoldenDiffNamesSwappedCell(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "net.golden"))
	if err != nil {
		t.Fatal(err)
	}
	golden := string(b)
	lines := strings.Split(strings.TrimSpace(golden), "\n")
	const target = "fifo/lossy"
	ti := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, target+" ") })
	if ti < 0 {
		t.Fatalf("net.golden has no %s line", target)
	}
	_, view, _ := strings.Cut(lines[ti], " ")
	donor := slices.IndexFunc(lines, func(l string) bool {
		id, v, _ := strings.Cut(l, " ")
		return strings.HasSuffix(id, "/lossy") && v != view
	})
	if donor < 0 {
		t.Fatal("every lossy cell holds fifo's view: no swap is visible")
	}
	_, swapped, _ := strings.Cut(lines[donor], " ")
	lines[ti] = target + " " + swapped
	err = goldenDiff(golden, strings.Join(lines, "\n"))
	if err == nil {
		t.Fatalf("%s with %s's view passed the golden comparison", target, lines[donor])
	}
	if msg := err.Error(); !strings.Contains(msg, target+"\n") || strings.Count(msg, "golden: ") != 1 {
		t.Fatalf("failure does not name exactly %s:\n%s", target, msg)
	}
	if err := goldenDiff(golden, golden); err != nil {
		t.Fatalf("the golden file differs from itself: %v", err)
	}
}
