package main

import (
	"fmt"
	"slices"
	"time"

	"mcpaxos"
	"mcpaxos/internal/linearize"
)

// gate checks one run's outputs: every learner holds the same state and the
// same merged order, every acknowledged write is in that order, the
// recorded read/write history is linearizable, and, when requireNoRounds is
// set, no round changed. Failed calls never abort the run; they are kept in
// the history the standard way (see history).
func gate(d *deployment, recs []record, rounds int, requireNoRounds bool) error {
	order, err := converged(d.rep, d.spec.Learners, 20*time.Second)
	if err != nil {
		return err
	}
	return checkRecords(recs, order, rounds, requireNoRounds)
}

// checkRecords is the gate's check of the client-observed records against
// the learners' merged order.
func checkRecords(recs []record, order []uint64, rounds int, requireNoRounds bool) error {
	inOrder := make(map[uint64]bool, len(order))
	for _, id := range order {
		inOrder[id] = true
	}
	for _, r := range recs {
		if r.ok && !r.Get {
			if !inOrder[r.id] {
				return fmt.Errorf("acknowledged write %d (%s) is missing from the merged order", r.id, r.Key)
			}
			if r.out != "ok" {
				return fmt.Errorf("write %d (%s) returned %q", r.id, r.Key, r.out)
			}
		}
	}
	if res := linearize.Check(history(recs, inOrder)); !res.Ok {
		return fmt.Errorf("history of %d ops is not linearizable on key %q: %s", res.Ops, res.Key, res.Info)
	}
	if requireNoRounds && rounds != 0 {
		return fmt.Errorf("%d round changes; a masked coordinator crash must cost none", rounds)
	}
	return nil
}

// history turns the records into a checkable history. A failed read
// constrains nothing and is left out; a failed write stays in with an open
// return when the merged order shows it applied, and is left out otherwise.
func history(recs []record, applied map[uint64]bool) []linearize.Op {
	ops := make([]linearize.Op, 0, len(recs))
	for _, r := range recs {
		o := linearize.Op{Key: r.Key, Call: r.start, Ret: r.end}
		if r.Get {
			o.Kind = linearize.Get
			o.Out, o.Found = readResult(r.out)
		} else {
			o.Kind, o.Arg = linearize.Set, r.Value
		}
		if !r.ok {
			if r.Get || !applied[r.id] {
				continue
			}
			o.Ret = linearize.Infinity
		}
		ops = append(ops, o)
	}
	return ops
}

// converged waits until every learner has applied the same number of
// commands, then checks that their merged orders and state machines are
// identical, and returns the order.
func converged(rep *mcpaxos.Replica, learners []mcpaxos.NodeSpec, timeout time.Duration) ([]uint64, error) {
	deadline := time.Now().Add(timeout)
	for {
		same, last := true, -1
		for _, l := range learners {
			n, err := rep.Applied(l.ID)
			if err != nil {
				return nil, err
			}
			if last >= 0 && n != last {
				same = false
			}
			last = n
		}
		if same {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("learners did not converge within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	first := learners[0].ID
	order, err := rep.Order(first)
	if err != nil {
		return nil, err
	}
	state, err := rep.Snapshot(first)
	if err != nil {
		return nil, err
	}
	for _, l := range learners[1:] {
		o, err := rep.Order(l.ID)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(o, order) {
			return nil, fmt.Errorf("learners %d and %d hold different merged orders (%d vs %d commands)", first, l.ID, len(order), len(o))
		}
		s, err := rep.Snapshot(l.ID)
		if err != nil {
			return nil, err
		}
		if s != state {
			return nil, fmt.Errorf("learners %d and %d hold different state", first, l.ID)
		}
	}
	return order, nil
}
