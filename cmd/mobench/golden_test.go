package main

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

// checkGolden compares a table's deterministic projection — one line
// per row, the row's name first — with testdata/<name>.golden, or
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
	wantLine := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		id, _, _ := strings.Cut(l, " ")
		wantLine[id] = l
	}
	var bad []string
	for _, l := range lines {
		id, _, _ := strings.Cut(l, " ")
		if w := wantLine[id]; w != l {
			bad = append(bad, fmt.Sprintf("%s\n  golden: %s\n     got: %s", id, w, l))
		}
		delete(wantLine, id)
	}
	for id := range wantLine {
		bad = append(bad, id+": in the golden file but not in this run")
	}
	if len(bad) > 0 {
		slices.Sort(bad)
		t.Errorf("%s differs (go test ./internal/conformance/ ./cmd/mobench/ -update rewrites it):\n%s",
			path, strings.Join(bad, "\n"))
	}
}
