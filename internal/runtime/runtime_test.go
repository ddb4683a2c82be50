package runtime

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mcpaxos/internal/core"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/quorum"
	"mcpaxos/internal/storage"
	"mcpaxos/internal/wal"

	"mcpaxos/internal/ballot"
)

type collector struct {
	mu  sync.Mutex
	got []msg.Message
}

func (c *collector) OnMessage(_ msg.NodeID, m msg.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, m)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

// drop is a send function for agents whose outbound traffic a test ignores.
func drop(msg.NodeID, msg.Message) {}

// bus routes sends between the agents one test starts, standing in for the
// TCP endpoints a deployment wires each agent to. Sends to an unknown or
// stopped node are lost.
type bus struct {
	mu     sync.Mutex
	agents map[msg.NodeID]*Agent
}

func newBus(t *testing.T) *bus {
	b := &bus{agents: make(map[msg.NodeID]*Agent)}
	t.Cleanup(func() {
		// Stop outside the lock: a mailbox blocked on the bus in a send
		// must be able to finish its handler before Stop returns.
		b.mu.Lock()
		agents := make([]*Agent, 0, len(b.agents))
		for _, a := range b.agents {
			agents = append(agents, a)
		}
		b.mu.Unlock()
		for _, a := range agents {
			a.Stop()
		}
	})
	return b
}

// start runs a fresh incarnation of node id on the bus, stopping the
// previous one if any.
func (b *bus) start(id msg.NodeID, build func(env node.Env) node.Handler) *Agent {
	b.mu.Lock()
	old := b.agents[id]
	b.mu.Unlock()
	if old != nil {
		old.Stop()
	}
	a := Start(id, func(to msg.NodeID, m msg.Message) {
		b.mu.Lock()
		dst := b.agents[to]
		b.mu.Unlock()
		if dst != nil {
			dst.Deliver(id, m)
		}
	}, nil, build)
	b.mu.Lock()
	b.agents[id] = a
	b.mu.Unlock()
	return a
}

// TestNetworkDelivers checks the send hook: whatever a handler passes to
// Env.Send reaches the agent's send function, here routed to a peer.
func TestNetworkDelivers(t *testing.T) {
	b := newBus(t)
	recv := &collector{}
	b.start(2, func(node.Env) node.Handler { return recv })
	var env node.Env
	sender := b.start(1, func(e node.Env) node.Handler { env = e; return &collector{} })
	sender.Do(func(node.Handler) { env.Send(2, msg.Heartbeat{From: 1}) })
	deadline := time.Now().Add(2 * time.Second)
	for recv.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if recv.count() != 1 {
		t.Fatalf("message not delivered")
	}
}

func TestAgentDoSerializes(t *testing.T) {
	c := &collector{}
	ag := Start(1, drop, nil, func(node.Env) node.Handler { return c })
	defer ag.Stop()
	ran := false
	ag.Do(func(h node.Handler) { ran = h == c })
	if !ran {
		t.Fatalf("Do did not run on the handler")
	}
}

// selfCaller is a handler that calls back into its own agent via Do when it
// receives a message — the re-entrant pattern that used to deadlock.
type selfCaller struct {
	agent *Agent
	ran   chan struct{}
}

func (s *selfCaller) OnMessage(_ msg.NodeID, m msg.Message) {
	if _, ok := m.(msg.Heartbeat); !ok {
		return
	}
	s.agent.Do(func(node.Handler) {
		close(s.ran)
	})
}

// TestAgentDoFromOwnGoroutine is the regression test for the Do self-call
// deadlock: a handler invoking Do on its own agent (directly or nested) must
// run the closure inline instead of waiting on its own mailbox forever.
func TestAgentDoFromOwnGoroutine(t *testing.T) {
	sc := &selfCaller{ran: make(chan struct{})}
	sc.agent = Start(1, drop, nil, func(node.Env) node.Handler { return sc })
	defer sc.agent.Stop()
	sc.agent.Deliver(2, msg.Heartbeat{From: 2})
	select {
	case <-sc.ran:
	case <-time.After(3 * time.Second):
		t.Fatal("Do from the agent's own goroutine deadlocked")
	}

	// Nested Do inside Do must also run inline.
	nested := false
	sc.agent.Do(func(node.Handler) {
		sc.agent.Do(func(node.Handler) { nested = true })
	})
	if !nested {
		t.Fatal("nested Do did not run")
	}
}

// TestLiveMulticoordinatedDeployment runs the full core protocol on
// goroutine agents: three coordinators, three acceptors, one learner.
func TestLiveMulticoordinatedDeployment(t *testing.T) {
	n := newBus(t)

	cfg := core.Config{
		Coords:    []msg.NodeID{100, 101, 102},
		Acceptors: []msg.NodeID{200, 201, 202},
		Learners:  []msg.NodeID{300},
		Quorums:   quorum.MustAcceptorSystem(3, 1, 0),
		CoordQ:    quorum.MustCoordSystem(3),
		Scheme:    ballot.MultiScheme{},
		Set:       cstruct.NewHistorySet(cstruct.KeyConflict),
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	var coords []*Agent
	for _, id := range cfg.Coords {
		coords = append(coords, n.start(id, func(env node.Env) node.Handler {
			return core.NewCoordinator(env, cfg)
		}))
	}
	for _, id := range cfg.Acceptors {
		disk := &storage.Disk{}
		n.start(id, func(env node.Env) node.Handler {
			return core.NewAcceptor(env, cfg, disk)
		})
	}
	var mu sync.Mutex
	learned := make(map[uint64]bool)
	n.start(300, func(env node.Env) node.Handler {
		return core.NewLearner(env, cfg, func(_ cstruct.CStruct, fresh []cstruct.Cmd) {
			mu.Lock()
			defer mu.Unlock()
			for _, c := range fresh {
				learned[c.ID] = true
			}
		})
	})
	var prop *core.Proposer
	propAgent := n.start(1, func(env node.Env) node.Handler {
		prop = core.NewProposer(env, cfg, 1)
		return prop
	})

	// Start the first round from coordinator 100.
	coords[0].Do(func(h node.Handler) {
		h.(*core.Coordinator).StartRound(cfg.Scheme.First(0, 100))
	})
	time.Sleep(50 * time.Millisecond)

	const total = 10
	for i := 0; i < total; i++ {
		i := i
		propAgent.Do(func(node.Handler) {
			prop.Propose(cstruct.Cmd{ID: uint64(1 + i), Key: fmt.Sprintf("k%d", i)})
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := len(learned)
		mu.Unlock()
		if got == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live deployment learned %d/%d", got, total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRestartRecoversAcceptorFromWAL is the runtime half of the recovery
// path: a WAL-backed acceptor on a goroutine agent is crash-restarted as a
// fresh agent, its replacement replays the log, and the accepted value it
// voted for before the crash must still be there (with the incarnation
// counter bumped so its round outruns every pre-crash promise).
func TestRestartRecoversAcceptorFromWAL(t *testing.T) {
	n := newBus(t)

	cfg := core.Config{
		Coords:    []msg.NodeID{100},
		Acceptors: []msg.NodeID{200, 201, 202},
		Learners:  []msg.NodeID{300},
		Quorums:   quorum.MustAcceptorSystem(3, 1, 0),
		CoordQ:    quorum.MustCoordSystem(1),
		Scheme:    ballot.MultiScheme{},
		Set:       cstruct.NewHistorySet(cstruct.KeyConflict),
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	base := t.TempDir()
	wals := make(map[msg.NodeID]*wal.WAL)
	openWAL := func(id msg.NodeID) *wal.WAL {
		w, err := wal.Open(filepath.Join(base, id.String()), wal.Options{})
		if err != nil {
			t.Fatalf("open wal for %v: %v", id, err)
		}
		return w
	}

	coord := n.start(100, func(env node.Env) node.Handler {
		return core.NewCoordinator(env, cfg)
	})
	accAgents := make(map[msg.NodeID]*Agent)
	for _, id := range cfg.Acceptors {
		id := id
		w := openWAL(id)
		wals[id] = w
		accAgents[id] = n.start(id, func(env node.Env) node.Handler {
			return core.NewAcceptor(env, cfg, w)
		})
	}
	var mu sync.Mutex
	learned := make(map[uint64]bool)
	n.start(300, func(env node.Env) node.Handler {
		return core.NewLearner(env, cfg, func(_ cstruct.CStruct, fresh []cstruct.Cmd) {
			mu.Lock()
			defer mu.Unlock()
			for _, c := range fresh {
				learned[c.ID] = true
			}
		})
	})
	var prop *core.Proposer
	propAgent := n.start(1, func(env node.Env) node.Handler {
		prop = core.NewProposer(env, cfg, 1)
		return prop
	})
	coord.Do(func(h node.Handler) {
		h.(*core.Coordinator).StartRound(cfg.Scheme.First(0, 100))
	})
	time.Sleep(50 * time.Millisecond)

	const total = 5
	for i := 0; i < total; i++ {
		i := i
		propAgent.Do(func(node.Handler) {
			prop.Propose(cstruct.Cmd{ID: uint64(1 + i), Key: fmt.Sprintf("k%d", i)})
		})
	}
	waitFor := func(want int) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			got := len(learned)
			mu.Unlock()
			if got >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("learned %d/%d", got, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(total)

	// Learning needs only a 2-of-3 quorum, which may exclude acceptor
	// 200: wait until 200 itself has processed (and so persisted) every
	// command before crashing it, or the loss check below would blame the
	// WAL for a message still sitting in the dead agent's inbox.
	accepted := func() bool {
		all := true
		accAgents[200].Do(func(h node.Handler) {
			vval := h.(*core.Acceptor).VVal()
			for i := 0; i < total; i++ {
				if !vval.Contains(cstruct.Cmd{ID: uint64(1 + i)}) {
					all = false
					return
				}
			}
		})
		return all
	}
	for deadline := time.Now().Add(5 * time.Second); !accepted(); {
		if time.Now().After(deadline) {
			t.Fatal("acceptor 200 never accepted all commands")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Hard-restart acceptor 200: the old agent dies with its volatile
	// state, the replacement replays the WAL from disk.
	restarted := n.start(200, func(env node.Env) node.Handler {
		wals[200].Close() // the old process's fd dies with it
		w := openWAL(200)
		wals[200] = w
		return core.NewAcceptor(env, cfg, w)
	})
	restarted.Do(func(h node.Handler) {
		a := h.(*core.Acceptor)
		a.OnRecover()
		vval := a.VVal()
		for i := 0; i < total; i++ {
			if !vval.Contains(cstruct.Cmd{ID: uint64(1 + i)}) {
				t.Errorf("restarted acceptor lost accepted command %d", 1+i)
			}
		}
		if a.Rnd().MCount == 0 {
			t.Error("recovery did not bump the incarnation counter")
		}
	})

	// The cluster must still make progress (quorum of up acceptors).
	for i := total; i < total+3; i++ {
		i := i
		propAgent.Do(func(node.Handler) {
			prop.Propose(cstruct.Cmd{ID: uint64(1 + i), Key: fmt.Sprintf("k%d", i)})
		})
	}
	waitFor(total + 3)
}
