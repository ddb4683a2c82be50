// Package node defines the execution environment contract between protocol
// state machines and their hosts (the discrete-event simulator and the
// goroutine runtime). Protocol agents are pure state machines: all their
// effects flow through an Env, which makes the same agent code runnable,
// deterministic and measurable under either host.
package node

import (
	"time"

	"mcpaxos/internal/msg"
)

// Tick is the wall-clock length of one Env time unit on the real-time hosts
// (internal/runtime agents) — also the unit the TCP transport scales
// injected fault delays by, so a fault schedule means the same thing on
// every host.
const Tick = time.Millisecond

// Env is the set of effects available to a protocol agent.
type Env interface {
	// ID returns the hosting node's identity.
	ID() msg.NodeID
	// Now returns the current logical time. Under the simulator with unit
	// link latency, Now of a learn event minus Now of the propose event is
	// the number of communication steps.
	Now() int64
	// Send transmits m to the node with identity to. Sending to self is
	// allowed and delivered like any other message.
	Send(to msg.NodeID, m msg.Message)
	// SetTimer schedules OnTimer(tag) on this agent after d time units.
	SetTimer(d int64, tag int)
}

// Handler is a protocol agent hosted on a node.
type Handler interface {
	// OnMessage processes one delivered message.
	OnMessage(from msg.NodeID, m msg.Message)
}

// TimerHandler is implemented by agents that use Env.SetTimer.
type TimerHandler interface {
	// OnTimer fires a previously set timer.
	OnTimer(tag int)
}

// Recoverable is implemented by agents that can rebuild their volatile
// state from stable storage after a crash.
type Recoverable interface {
	// OnRecover is invoked by the host when the crashed node restarts,
	// after volatile state has been discarded.
	OnRecover()
}

// Broadcast sends m to every destination via env.
func Broadcast(env Env, tos []msg.NodeID, m msg.Message) {
	for _, to := range tos {
		env.Send(to, m)
	}
}
