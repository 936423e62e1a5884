package causal

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/ptest"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// randomRun drives n instances of one causal protocol through a seeded
// schedule in which wires overtake each other, so messages are held.
// It records each process's deliveries and snapshot twice: mid-run,
// with messages held, and after every wire in flight has arrived.
func randomRun(mk func() protocol.Process, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	procs := make([]protocol.Process, n)
	envs := make([]*ptest.Env, n)
	for i := range procs {
		procs[i], envs[i] = mk(), ptest.NewEnv(event.ProcID(i), n)
		procs[i].Init(envs[i])
	}
	var pool []protocol.Wire
	var next event.MsgID
	invoke := func() {
		from := event.ProcID(rng.Intn(n))
		var msgs []event.Message
		for to := range n {
			if event.ProcID(to) != from {
				msgs = append(msgs, event.Message{ID: next, From: from, To: event.ProcID(to)})
				next++
			}
		}
		if b, ok := procs[from].(protocol.Broadcaster); ok {
			b.OnBroadcast(msgs)
		} else {
			procs[from].OnInvoke(msgs[rng.Intn(len(msgs))])
		}
		pool = append(pool, envs[from].TakeSent()...)
	}
	receive := func() {
		i := len(pool) - 1 // the newest wire overtakes the rest
		if rng.Intn(2) == 0 {
			i = rng.Intn(len(pool))
		}
		w := pool[i]
		pool = append(pool[:i], pool[i+1:]...)
		procs[w.To].OnReceive(w)
		pool = append(pool, envs[w.To].TakeSent()...)
	}
	var out []string
	record := func(phase string) {
		for i, p := range procs {
			snap := p.(protocol.Snapshotter).Snapshot()
			out = append(out, fmt.Sprintf("%s seed=%d p%d delivered=%v snap=%x",
				phase, seed, i, envs[i].DeliveredSeq(), snap))
		}
	}
	for range 40 {
		if len(pool) > 0 && rng.Intn(2) > 0 {
			receive()
		} else {
			invoke()
		}
	}
	record("mid")
	for len(pool) > 0 {
		receive()
	}
	record("end")
	return out
}

// TestSnapshotBytesMatchGolden pins the causal protocols' behaviour and
// snapshot encoding: seeded runs with held messages must deliver in the
// recorded orders and snapshot to the recorded bytes, so a WAL written
// by an earlier build still recovers. Rewrite the golden with
// `go test ./internal/protocols/causal/ -run SnapshotBytes -update`.
func TestSnapshotBytesMatchGolden(t *testing.T) {
	var lines []string
	for _, c := range []struct {
		name string
		mk   func() protocol.Process
	}{{"causal-rst", RSTMaker}, {"causal-ses", SESMaker}, {"causal-bss", BSSMaker}} {
		for seed := int64(1); seed <= 6; seed++ {
			for _, l := range randomRun(c.mk, 4, seed) {
				lines = append(lines, c.name+" "+l)
			}
		}
	}
	got := []byte(strings.Join(lines, "\n") + "\n")
	path := filepath.Join("testdata", "snapshots.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wl := strings.Split(string(want), "\n")
	for i, l := range strings.Split(string(got), "\n") {
		if i >= len(wl) || l != wl[i] {
			t.Errorf("line %d differs:\n got %s\nwant %s", i+1, l, wl[min(i, len(wl)-1)])
			return
		}
	}
	t.Errorf("golden has %d lines, run has %d", len(wl), len(lines)+1)
}
