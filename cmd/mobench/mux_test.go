package main

import "testing"

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

// TestMuxCmdProtos runs a -protos sub-matrix: every cell of the two
// named channels must pass conformance.MuxCell.Err.
func TestMuxCmdProtos(t *testing.T) {
	if testing.Short() {
		t.Skip("socket matrix")
	}
	if err := muxCmd([]string{"-protos", "tagless,causal-rst", "-msgs", "8"}); err != nil {
		t.Fatal(err)
	}
}

// TestMuxCmdRejectsUnknownProtocol pins the flag-validation exit path.
func TestMuxCmdRejectsUnknownProtocol(t *testing.T) {
	if err := muxCmd([]string{"-protos", "nope"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}
