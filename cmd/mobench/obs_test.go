package main

import (
	"strings"
	"testing"
	"time"

	"msgorder/internal/conformance"
)

// TestObsCmd runs E15 at the verify.sh obs-fleet smoke's sizes and
// checks the payload in memory: overhead rows with nonzero throughput,
// two causally valid fleet timelines, a skew report and a named lock
// table. The traced/untraced overhead ratio is a timing, left to the
// smoke's gate.
func TestObsCmd(t *testing.T) {
	if testing.Short() {
		t.Skip("socket load runs and a scraped fleet")
	}
	rows, err := obsData(obsConfig{
		protos:    strings.Split(defaultObsProtos, ","),
		load:      conformance.LoadConfig{Procs: 3, Msgs: 800, Seed: 5, Timeout: 60 * time.Second},
		runs:      1,
		fleetMsgs: 120,
		keys:      8,
		mutexFrac: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows.Overhead) != 2 {
		t.Fatalf("%d overhead rows, want one per protocol of %s", len(rows.Overhead), defaultObsProtos)
	}
}
