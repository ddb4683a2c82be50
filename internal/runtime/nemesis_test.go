package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"mcpaxos/internal/faults"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// timerCounter arms one timer on demand and counts every OnTimer it sees.
type timerCounter struct {
	env   node.Env
	fires atomic.Int64
}

func (h *timerCounter) OnMessage(_ msg.NodeID, m msg.Message) {
	if m.Type() == msg.THeartbeat {
		h.env.SetTimer(int64(m.(msg.Heartbeat).Epoch), 1)
	}
}

func (h *timerCounter) OnTimer(int) { h.fires.Add(1) }

// waitFires polls until h has seen at least one timer or the deadline
// passes.
func waitFires(h *timerCounter, within time.Duration) bool {
	deadline := time.Now().Add(within)
	for h.fires.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return h.fires.Load() > 0
}

// TestRestartDropsStaleTimers pins the crash-boundary rule for timers: a
// timer armed before a restart must not fire into any handler — not the
// dead incarnation, and above all not the restarted one under the same ID —
// mirroring the simulator's epoch guard. Every incarnation is a fresh
// Agent, so a stale timer can only reach the stopped mailbox it was armed
// on; were it to reach the fresh handler, a pre-restart retransmission
// deadline would arrive as a phantom timeout and could trigger a spurious
// round change.
func TestRestartDropsStaleTimers(t *testing.T) {
	old := &timerCounter{}
	first := Start(7, drop, nil, func(env node.Env) node.Handler { old.env = env; return old })
	// Arm a 30-tick timer from the mailbox goroutine, then restart at ~0.
	first.Deliver(7, msg.Heartbeat{From: 7, Epoch: 30})
	time.Sleep(5 * time.Millisecond)
	first.Stop()

	fresh := &timerCounter{}
	second := Start(7, drop, nil, func(env node.Env) node.Handler { fresh.env = env; return fresh })
	defer second.Stop()
	time.Sleep(80 * time.Millisecond) // well past the stale deadline

	if got := fresh.fires.Load(); got != 0 {
		t.Fatalf("stale timer fired %d times into the restarted handler", got)
	}
	if got := old.fires.Load(); got != 0 {
		t.Fatalf("stale timer fired %d times into the dead incarnation", got)
	}

	// The restarted incarnation's own timers still work.
	second.Deliver(7, msg.Heartbeat{From: 7, Epoch: 2})
	if !waitFires(fresh, 2*time.Second) {
		t.Fatalf("restarted incarnation's timer never fired")
	}
}

// TestTimerSkewScalesDelay checks that the fault injector's clock skew
// reaches the agent's timers: a slow clock stretches a 2-tick timer to 40.
func TestTimerSkewScalesDelay(t *testing.T) {
	f := faults.New(1)
	f.SetSkew(20)
	h := &timerCounter{}
	ag := Start(1, drop, f, func(env node.Env) node.Handler { h.env = env; return h })
	defer ag.Stop()
	ag.Deliver(1, msg.Heartbeat{From: 1, Epoch: 2})
	time.Sleep(15 * time.Millisecond)
	if got := h.fires.Load(); got != 0 {
		t.Fatalf("skewed timer fired after 15ms, want ≥ 40 ticks")
	}
	if !waitFires(h, 2*time.Second) {
		t.Fatal("skewed timer never fired")
	}
	if s := f.Stats(); s.Skewed != 1 {
		t.Fatalf("Skewed = %d, want 1", s.Skewed)
	}
}

// TestDoOnStoppedAgentReturns is the companion regression: Do on a stopped
// agent used to race a buffered inbox send against the closed done channel
// and, on losing the coin flip, wait forever for a completion nobody would
// deliver. Many iterations make the old 50% hang a near-certain failure.
func TestDoOnStoppedAgentReturns(t *testing.T) {
	ag := Start(1, drop, nil, func(node.Env) node.Handler { return &collector{} })
	ag.Stop()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			ag.Do(func(node.Handler) { t.Error("Do ran fn on a stopped agent") })
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do hung on a stopped agent")
	}
}
