// Package runtime hosts one protocol state machine on a goroutine with real
// time, complementing the deterministic simulator: the same agents (they
// only know node.Env) run here unchanged. An Agent runs its handler on a
// single mailbox goroutine, so agent code needs no internal locking;
// everything the handler sends leaves through the send function the agent
// was started with (in a deployment, the node's own TCP endpoint), and
// inbound messages reach it through Deliver.
package runtime

import (
	"bytes"
	rt "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcpaxos/internal/faults"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// inboundKind discriminates mailbox events.
type inboundKind uint8

const (
	kindMsg inboundKind = iota + 1
	kindTimer
)

type inbound struct {
	kind inboundKind
	from msg.NodeID
	m    msg.Message
	tag  int
}

// Agent is one hosted protocol state machine: one handler, one mailbox.
type Agent struct {
	id      msg.NodeID
	send    func(to msg.NodeID, m msg.Message)
	faults  *faults.Faults
	start   time.Time
	handler node.Handler
	inbox   chan inbound
	done    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	// loopGID is the goroutine ID of the mailbox loop, so Do can detect
	// re-entrant calls from handler code and run them inline instead of
	// deadlocking on its own mailbox.
	loopGID atomic.Uint64
}

// Start creates an agent and starts its mailbox goroutine: build receives
// the agent's Env and returns its handler. The Env's Send calls send; its
// clock counts node.Tick units from Start; its timers are scaled by f's
// clock skew (nil f means no skew). Message faults are the send path's
// business, not the agent's.
//
// Each incarnation of a node is a fresh Agent: a process restart stops the
// old agent and starts a new one, so timers armed by the old incarnation
// fire into its stopped mailbox and are dropped — they never reach the
// restarted handler.
func Start(id msg.NodeID, send func(to msg.NodeID, m msg.Message), f *faults.Faults, build func(env node.Env) node.Handler) *Agent {
	a := &Agent{
		id:     id,
		send:   send,
		faults: f,
		start:  time.Now(),
		inbox:  make(chan inbound, 1024),
		done:   make(chan struct{}),
	}
	a.handler = build(agentEnv{a})
	a.wg.Add(1)
	go a.loop()
	return a
}

// gid returns the calling goroutine's ID, parsed from the runtime stack
// header ("goroutine N [...]"). Only Do pays this cost; the message hot
// path never calls it.
func gid() uint64 {
	var buf [64]byte
	n := rt.Stack(buf[:], false)
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		return 0
	}
	id, err := strconv.ParseUint(string(fields[1]), 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// Deliver hands the agent a message as if sent by from. On a stopped agent
// it is a no-op: the message is lost, as the asynchronous model allows.
func (a *Agent) Deliver(from msg.NodeID, m msg.Message) {
	a.enqueue(inbound{kind: kindMsg, from: from, m: m})
}

// Do runs fn on the agent's mailbox goroutine and waits for it: safe
// synchronous access to handler state. Calling Do from the mailbox
// goroutine itself (handler code calling back into its own agent) runs fn
// inline — already serialized — instead of deadlocking on the mailbox.
// On a stopped agent, Do returns without running fn: the buffered inbox
// would otherwise accept the closure (both select cases ready, picked at
// random) and leave the caller waiting on a completion that never comes.
func (a *Agent) Do(fn func(h node.Handler)) {
	if g := gid(); g != 0 && a.loopGID.Load() == g {
		fn(a.handler)
		return
	}
	select {
	case <-a.done:
		return
	default:
	}
	doneCh := make(chan struct{})
	select {
	case a.inbox <- inbound{kind: kindMsg, from: 0, m: doFunc{fn: fn, done: doneCh}}:
		select {
		case <-doneCh:
		case <-a.done: // stopped before the closure was drained
		}
	case <-a.done:
	}
}

// doFunc piggybacks a closure through the mailbox.
type doFunc struct {
	fn   func(node.Handler)
	done chan struct{}
}

// Type implements msg.Message.
func (doFunc) Type() msg.Type { return msg.TUnknown }

// Instance implements msg.Message.
func (doFunc) Instance() uint64 { return 0 }

func (a *Agent) enqueue(in inbound) {
	// Check done first: once the loop has exited, both select cases below
	// can be ready (the inbox is buffered), and picking the send would
	// strand the event in a channel nobody drains.
	select {
	case <-a.done:
		return
	default:
	}
	select {
	case a.inbox <- in:
	case <-a.done:
	}
}

func (a *Agent) loop() {
	defer a.wg.Done()
	a.loopGID.Store(gid())
	for {
		select {
		case in := <-a.inbox:
			switch in.kind {
			case kindMsg:
				if df, ok := in.m.(doFunc); ok {
					df.fn(a.handler)
					close(df.done)
					continue
				}
				a.handler.OnMessage(in.from, in.m)
			case kindTimer:
				if th, ok := a.handler.(node.TimerHandler); ok {
					th.OnTimer(in.tag)
				}
			}
		case <-a.done:
			return
		}
	}
}

// Stop terminates the agent and waits for its mailbox goroutine. Pending
// timers fire into a closed mailbox and are dropped.
func (a *Agent) Stop() {
	a.once.Do(func() { close(a.done) })
	a.wg.Wait()
}

type agentEnv struct{ a *Agent }

func (e agentEnv) ID() msg.NodeID { return e.a.id }
func (e agentEnv) Now() int64     { return int64(time.Since(e.a.start) / node.Tick) }

func (e agentEnv) Send(to msg.NodeID, m msg.Message) { e.a.send(to, m) }

func (e agentEnv) SetTimer(d int64, tag int) {
	// Clock skew (fault injection) scales the delay before the floor clamp.
	d = e.a.faults.TimerDelay(d)
	if d < 1 {
		d = 1
	}
	time.AfterFunc(time.Duration(d)*node.Tick, func() {
		e.a.enqueue(inbound{kind: kindTimer, tag: tag})
	})
}
