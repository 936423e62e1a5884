package main

import "fmt"

// checkOrder is the O(messages) output check every round runs. seqs
// holds, per destination process, the indices (into msgs) of the
// messages delivered there, in delivery order. It returns how many
// messages were not delivered exactly once, at their destination, in
// invoke order within their (from, to, domain) stream — indices are
// assigned in invoke order by the single generator, so "in order" is
// "ascending" — and a description of the first offence.
func checkOrder(msgs []msg, domains int, seqs [][]int) (failed int, first error) {
	note := func(err error) {
		if first == nil {
			first = err
		}
	}
	seen := make([]uint8, len(msgs))
	bad := make([]bool, len(msgs))
	procs := len(seqs)
	// last[(to*procs+from)*domains+dom] is the latest index delivered on
	// that stream, +1 so that zero means none yet.
	last := make([]int, procs*procs*domains)
	for to, seq := range seqs {
		for _, i := range seq {
			if i < 0 || i >= len(msgs) {
				failed++
				note(fmt.Errorf("P%d delivered unknown message %d", to, i))
				continue
			}
			if seen[i] > 0 {
				seen[i] = 2
				note(fmt.Errorf("message %d delivered more than once", i))
				continue
			}
			seen[i] = 1
			m := msgs[i]
			if int(m.to) != to {
				bad[i] = true
				note(fmt.Errorf("message %d for P%d delivered at P%d", i, m.to, to))
			}
			slot := &last[(to*procs+int(m.from))*domains+int(m.dom)]
			if i+1 <= *slot {
				bad[i] = true
				note(fmt.Errorf("message %d delivered at P%d after message %d of the same stream", i, to, *slot-1))
			} else {
				*slot = i + 1
			}
		}
	}
	for i := range msgs {
		switch {
		case seen[i] == 0:
			note(fmt.Errorf("message %d never delivered", i))
			failed++
		case seen[i] > 1 || bad[i]:
			failed++
		}
	}
	return failed, first
}
