package main

import (
	"encoding/json"
	"os"
)

// span is one timed interval the benchmark recorded around its own
// calls into the program: a phase of the traced round, one tick's
// batch of Invoke calls, or one layer's replay.
type span struct {
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // -1 for a root
	StartUs  float64 `json:"start_us"`
	EndUs    float64 `json:"end_us"`
	// SelfUs is the duration minus the part covered by child spans.
	SelfUs float64 `json:"self_us"`
}

// spans collects the traced pass's spans in memory; they are written
// out once, when the run ends. Only the generator goroutine records,
// so there is no locking. A nil *spans records nothing.
type spans struct {
	workload string
	list     []span
}

// begin opens a span under parent (-1 for none) and returns its id.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	id := len(s.list)
	s.list = append(s.list, span{Name: name, Workload: s.workload, ID: id, Parent: parent, StartUs: float64(nowNs()) / 1e3})
	return id
}

func (s *spans) end(id int) {
	if s == nil || id < 0 {
		return
	}
	s.list[id].EndUs = float64(nowNs()) / 1e3
}

// finish computes every span's self time. Children lie inside their
// parent and siblings do not overlap (one goroutine records them), so
// the covered part is the sum of the children's durations.
func (s *spans) finish() []span {
	for i := range s.list {
		s.list[i].SelfUs = s.list[i].EndUs - s.list[i].StartUs
	}
	for _, c := range s.list {
		if c.Parent >= 0 {
			s.list[c.Parent].SelfUs -= c.EndUs - c.StartUs
		}
	}
	return s.list
}

func (s *spans) write(path string) error {
	b, err := json.MarshalIndent(s.finish(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
