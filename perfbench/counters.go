package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"mcpaxos"
	"mcpaxos/internal/deploy"
	"mcpaxos/internal/transport"
)

// replicaSums are the counters the replica sums over its live nodes; a
// killed node's share leaves the sums, so the window carries it over.
type replicaSums struct {
	net                        transport.TCPStats
	stamped, restamped, filled uint64
	rounds                     int
}

func readReplicaSums(rep *mcpaxos.Replica) replicaSums {
	var s replicaSums
	s.net = rep.NetStats()
	s.stamped, s.restamped, s.filled = rep.IngressCounts()
	s.rounds = rep.RoundChanges()
	return s
}

func (s replicaSums) plus(o replicaSums) replicaSums {
	return replicaSums{
		net:     s.net.Plus(o.net),
		stamped: s.stamped + o.stamped, restamped: s.restamped + o.restamped, filled: s.filled + o.filled,
		rounds: s.rounds + o.rounds,
	}
}

func (s replicaSums) minus(o replicaSums) replicaSums {
	return replicaSums{
		net: transport.TCPStats{
			FramesOut: s.net.FramesOut - o.net.FramesOut, BytesOut: s.net.BytesOut - o.net.BytesOut,
			FramesIn: s.net.FramesIn - o.net.FramesIn, BytesIn: s.net.BytesIn - o.net.BytesIn,
			EncodeNanos: s.net.EncodeNanos - o.net.EncodeNanos, DecodeNanos: s.net.DecodeNanos - o.net.DecodeNanos,
		},
		stamped: s.stamped - o.stamped, restamped: s.restamped - o.restamped, filled: s.filled - o.filled,
		rounds: s.rounds - o.rounds,
	}
}

// counters is one sample of every counter the per-layer metrics are built
// from, read through the public API and the Go runtime.
type counters struct {
	replica    replicaSums
	clientNet  transport.TCPStats
	client     mcpaxos.ClientStats
	resyncs    uint64
	compaction deploy.CompactionStats
	walBytes   int64
	walSegs    int
	proc       processCounters
}

func readCounters(d *deployment) counters {
	c := counters{
		replica:    readReplicaSums(d.rep),
		clientNet:  d.cli.NetStats(),
		client:     d.cli.Stats(),
		resyncs:    d.rep.CatchupStats().Resyncs,
		compaction: d.rep.CompactionStats(),
		proc:       readProcess(),
	}
	c.walSegs, _, c.walBytes = d.rep.WALDiskStats()
	return c
}

// processCounters are the whole process's allocation and CPU counters.
type processCounters struct {
	allocBytes, mallocs float64
	gcCPU, usedCPU      float64 // seconds
	procCPU             time.Duration
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readProcess() processCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	p := processCounters{allocBytes: v(0), mallocs: v(1), gcCPU: v(2), usedCPU: v(3) - v(4)}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.procCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return p
}

// watchdog ends a runaway run: once the live heap passes its limit or the
// wall clock passes its deadline, done closes, callers stop issuing and
// their outstanding calls are recorded as failed.
type watchdog struct {
	done     chan struct{}
	once     sync.Once
	mu       sync.Mutex
	why      string
	stop     chan struct{}
	stopOnce sync.Once
	exited   chan struct{}
}

func startWatchdog(heapLimit uint64, deadline time.Time) *watchdog {
	w := &watchdog{done: make(chan struct{}), stop: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(w.exited)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case now := <-t.C:
				metrics.Read(s)
				if heap := s[0].Value.Uint64(); heap > heapLimit {
					w.trip(fmt.Sprintf("live heap %d MiB over the %d MiB limit", heap>>20, heapLimit>>20))
				}
				if now.After(deadline) {
					w.trip("wall-clock deadline passed")
				}
			}
		}
	}()
	return w
}

func (w *watchdog) trip(why string) {
	w.once.Do(func() {
		w.mu.Lock()
		w.why = why
		w.mu.Unlock()
		close(w.done)
	})
}

func (w *watchdog) fired() bool {
	select {
	case <-w.done:
		return true
	default:
		return false
	}
}

func (w *watchdog) reason() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.why
}

// close stops the watchdog's goroutine and waits for it to exit.
func (w *watchdog) close() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.exited
}
