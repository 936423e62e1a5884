package registry

import (
	"bytes"
	"math/rand"
	"testing"

	"msgorder/internal/classify"
	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/ptest"
)

// TestCatalogResolves pins the catalog shape: 8 protocols, resolvable
// by name, every named spec present in the catalog package.
func TestCatalogResolves(t *testing.T) {
	cat := Catalog()
	if len(cat) != 8 {
		t.Fatalf("catalog has %d protocols, want 8", len(cat))
	}
	seen := map[string]bool{}
	for _, e := range cat {
		if seen[e.Name] {
			t.Fatalf("duplicate protocol %q", e.Name)
		}
		seen[e.Name] = true
		if e.Maker == nil {
			t.Fatalf("%s: nil maker", e.Name)
		}
		got, ok := ByName(e.Name)
		if !ok || got.Name != e.Name {
			t.Fatalf("ByName(%q) = %+v, %v", e.Name, got, ok)
		}
		if e.Spec != "" && e.Pred() == nil {
			t.Fatalf("%s: spec %q has no predicate", e.Name, e.Spec)
		}
		if inst := e.Maker(); inst == nil {
			t.Fatalf("%s: maker built nil", e.Name)
		}
	}
	if _, ok := ByName("causal-bss"); !ok {
		t.Fatal("extras not resolvable")
	}
	ho, ok := ByName("handoff")
	if !ok {
		t.Fatal("handoff not resolvable")
	}
	if ho.Pred() == nil {
		t.Fatal("handoff entry has no predicate")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown protocol resolved")
	}
	if names := Names(); len(names) != 11 || names[0] != "tagless" {
		t.Fatalf("Names() = %v", names)
	}
}

// TestForSpecPicksMinimalWitness pins the spec→witness walk: each
// classifier verdict maps to its class's cheapest catalog protocol,
// catalog names and raw expressions both resolve, and unimplementable
// or malformed specs are refused.
func TestForSpecPicksMinimalWitness(t *testing.T) {
	cases := []struct {
		spec, witness string
		class         classify.Class
	}{
		{"", "tagless", classify.Tagless},
		{"fifo", "causal-rst", classify.Tagged},
		{"causal-b2", "causal-rst", classify.Tagged},
		{"sync-2", "sync", classify.General},
	}
	for _, c := range cases {
		e, class, err := ForSpec(c.spec)
		if err != nil {
			t.Fatalf("ForSpec(%q): %v", c.spec, err)
		}
		if e.Name != c.witness || class != c.class {
			t.Fatalf("ForSpec(%q) = %s/%s, want %s/%s", c.spec, e.Name, class, c.witness, c.class)
		}
	}
	if _, _, err := ForSpec("not a ( spec"); err == nil {
		t.Fatal("malformed spec accepted")
	}
}

// TestRequiredRankOrdering pins the class power scale used to reject a
// forced protocol weaker than its specification.
func TestRequiredRankOrdering(t *testing.T) {
	tl, _ := RequiredRank(classify.Tagless)
	tg, _ := RequiredRank(classify.Tagged)
	gn, _ := RequiredRank(classify.General)
	if !(tl < tg && tg < gn) {
		t.Fatalf("rank order broken: tagless=%d tagged=%d general=%d", tl, tg, gn)
	}
	if _, err := RequiredRank(classify.Unimplementable); err == nil {
		t.Fatal("unimplementable class got a rank")
	}
}

// TestKeptSnapshotRestores runs ptest.KeptSnapshotRestores for every
// resolvable protocol: three processes exchange seeded invokes (and
// broadcasts, for Broadcasters) over a network that hands wires over
// in random order, so held buffers and in-flight state are part of
// what P0 snapshots before and after its further inputs.
func TestKeptSnapshotRestores(t *testing.T) {
	const procs = 3
	for _, name := range Names() {
		e, _ := ByName(name)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			rec := protocol.NewRecorder(procs)
			envs := make([]*ptest.Env, procs)
			insts := make([]protocol.Process, procs)
			for i := range insts {
				envs[i], insts[i] = ptest.NewEnv(event.ProcID(i), procs), e.Maker()
				insts[i].Init(envs[i])
			}
			var net []protocol.Wire
			collect := func() {
				for _, env := range envs {
					net = append(net, env.TakeSent()...)
				}
			}
			pump := func(invokes int) {
				for i := 0; i < invokes; i++ {
					from := event.ProcID(rng.Intn(procs))
					color := event.ColorNone
					if len(e.Colors) > 0 {
						color = e.Colors[rng.Intn(len(e.Colors))]
					}
					if b, ok := insts[from].(protocol.Broadcaster); ok && rng.Intn(2) == 0 {
						var msgs []event.Message
						for to := 0; to < procs; to++ {
							if event.ProcID(to) != from {
								msgs = append(msgs, rec.NewMessage(from, event.ProcID(to), color))
							}
						}
						b.OnBroadcast(msgs)
					} else {
						to := (from + 1 + event.ProcID(rng.Intn(procs-1))) % procs
						insts[from].OnInvoke(rec.NewMessage(from, to, color))
					}
					collect()
					for k := len(net) / 2; k > 0; k-- {
						j := rng.Intn(len(net))
						w := net[j]
						net[j] = net[len(net)-1]
						net = net[:len(net)-1]
						insts[w.To].OnReceive(w)
						collect()
					}
				}
			}
			pump(20)
			clone := e.Maker()
			clone.Init(ptest.NewEnv(0, procs))
			kept := ptest.KeptSnapshotRestores(t, insts[0], func() { pump(20) }, clone)
			if now := insts[0].(protocol.Snapshotter).Snapshot(); name != "tagless" && bytes.Equal(now, kept) {
				t.Fatal("P0's state did not change under the further inputs: the check proved nothing")
			}
		})
	}
}
