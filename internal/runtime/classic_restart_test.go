package runtime

import (
	"path/filepath"
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/classic"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/quorum"
	"mcpaxos/internal/wal"
)

// TestRestartReplaysCoordTallyFromWAL is the runtime half of the
// multicoordinated recovery path: a WAL-backed classic acceptor in a
// 3-member coordinator-group deployment is crash-restarted as a fresh agent
// in the middle of a batch — one instance fully accepted
// (vote on disk), the next holding a partial coordinator tally (one of the
// required two matching 2as arrived). The replacement's replay must rebuild
// both: the vote and the in-flight coord-vote state, with the incarnation
// bumped. The stalled instance then completes in a higher round, as the
// group's Stale-driven recovery would drive it.
func TestRestartReplaysCoordTallyFromWAL(t *testing.T) {
	cfg := classic.Config{
		Coords:         []msg.NodeID{100, 101, 102},
		Acceptors:      []msg.NodeID{200, 201, 202},
		Learners:       []msg.NodeID{300},
		Quorums:        quorum.MustAcceptorSystem(3, 1, 0),
		CoordsPerShard: 3,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "acc200")
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}

	acc := Start(200, drop, nil, func(env node.Env) node.Handler {
		return classic.NewAcceptor(env, cfg, w)
	})

	r := ballot.Ballot{MinCount: 1, ID: 100}
	val := func(id uint64) cstruct.CStruct {
		return cstruct.NewSingleValue(cstruct.Cmd{ID: id, Key: "k", Op: cstruct.OpWrite})
	}
	// Instance 0: a full coordinator quorum (members 100 and 101 of 3) —
	// the vote hits the WAL before the 2b leaves.
	acc.Deliver(100, msg.P2a{Inst: 0, Rnd: r, Coord: 100, Val: val(10)})
	acc.Deliver(101, msg.P2a{Inst: 0, Rnd: r, Coord: 101, Val: val(10)})
	// Instance 1: only member 100's 2a — a partial tally, also persisted.
	acc.Deliver(100, msg.P2a{Inst: 1, Rnd: r, Coord: 100, Val: val(11)})
	acc.Do(func(h node.Handler) {
		a := h.(*classic.Acceptor)
		if _, _, ok := a.Vote(0); !ok {
			t.Error("instance 0 not accepted before the crash")
		}
		if _, _, ok := a.Vote(1); ok {
			t.Error("instance 1 accepted on a single member's 2a")
		}
	})

	// Hard restart: the old agent dies with its volatile state and fd, the
	// replacement replays the log directory.
	acc.Stop()
	w.Close()
	if w, err = wal.Open(dir, wal.Options{}); err != nil {
		t.Fatalf("reopen wal: %v", err)
	}
	defer func() { w.Close() }()
	restarted := Start(200, drop, nil, func(env node.Env) node.Handler {
		return classic.NewAcceptor(env, cfg, w)
	})
	defer restarted.Stop()

	var mcount uint32
	restarted.Do(func(h node.Handler) {
		a := h.(*classic.Acceptor)
		a.OnRecover()
		if _, v, ok := a.Vote(0); !ok || v.ID != 10 {
			t.Errorf("vote for instance 0 lost across restart (got %v, ok=%v)", v, ok)
		}
		rnd, coords, ok := a.Tally(1)
		if !ok {
			t.Fatal("partial coordinator tally lost across restart")
		}
		if !rnd.Equal(r) || len(coords) != 1 || coords[0] != 100 {
			t.Errorf("replayed tally = (%v, %v), want (%v, [100])", rnd, coords, r)
		}
		if a.Rnd().MCount == 0 {
			t.Error("recovery did not bump the incarnation counter")
		}
		mcount = a.Rnd().MCount
	})

	// The stalled instance completes in a round above the recovered floor:
	// the group rejoins (1a) and a coordinator quorum re-forwards it.
	r2 := ballot.Ballot{MCount: mcount, MinCount: 1, ID: 100}
	restarted.Deliver(100, msg.P1a{Rnd: r2, Coord: 100, Shard: 0})
	restarted.Deliver(100, msg.P2a{Inst: 1, Rnd: r2, Coord: 100, Val: val(11)})
	restarted.Deliver(101, msg.P2a{Inst: 1, Rnd: r2, Coord: 101, Val: val(11)})
	restarted.Do(func(h node.Handler) {
		a := h.(*classic.Acceptor)
		if vrnd, v, ok := a.Vote(1); !ok || v.ID != 11 || !vrnd.Equal(r2) {
			t.Errorf("instance 1 did not complete after recovery (got %v@%v, ok=%v)", v, vrnd, ok)
		}
	})
}
