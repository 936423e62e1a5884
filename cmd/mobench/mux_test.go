package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"msgorder/internal/conformance"
)

// TestMuxCmdSmoke runs the CI gate: three channels with distinct
// guarantee levels over one shared mesh, every cell's view diffed
// against its standalone sim run.
func TestMuxCmdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second socket matrix")
	}
	if err := muxCmd([]string{"-smoke"}); err != nil {
		t.Fatal(err)
	}
}

// TestMuxCmdJSON checks that -json writes a BENCH_mux.json that parses
// with every matrix cell present and re-validates clean.
func TestMuxCmdJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("socket matrix")
	}
	dir := t.TempDir()
	if err := muxCmd([]string{
		"-json", "-outdir", dir, "-protos", "tagless,causal-rst", "-msgs", "8",
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_mux.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Experiment string                `json:"experiment"`
		Rows       []conformance.MuxCell `json:"rows"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 6 {
		t.Fatalf("matrix has %d cells, want 6 (2 channels x 3 cells)", len(f.Rows))
	}
}

// TestMuxCmdRejectsUnknownProtocol pins the flag-validation exit path.
func TestMuxCmdRejectsUnknownProtocol(t *testing.T) {
	if err := muxCmd([]string{"-protos", "nope"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

// TestValidateBenchMux pins the snapshot validator against corrupted
// and failing files — the artifacts the mux-smoke gate trusts.
func TestValidateBenchMux(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := validateBenchMux(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file validated")
	}
	if err := validateBenchMux(write("garbage.json", "{not json")); err == nil {
		t.Fatal("garbage validated")
	}
	if err := validateBenchMux(write("empty.json",
		`{"experiment":"e","rows":[]}`)); err == nil {
		t.Fatal("empty rows validated")
	}
	if err := validateBenchMux(write("diverged.json",
		`{"experiment":"e","rows":[{"Protocol":"fifo","Cell":"clean","Match":false}]}`)); err == nil {
		t.Fatal("diverged matrix cell validated")
	}
	if err := validateBenchMux(write("overhead.json",
		`{"experiment":"e","rows":[{"Protocol":"tagless","Cell":"clean","Match":true,"Stats":{"UserTagBytes":4}}]}`)); err == nil {
		t.Fatal("tagless overhead regression validated")
	}
	if err := validateBenchMux(write("good.json",
		`{"experiment":"e","rows":[{"Protocol":"fifo","Cell":"clean","Match":true}]}`)); err != nil {
		t.Fatal(err)
	}
}
