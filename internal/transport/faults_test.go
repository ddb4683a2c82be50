package transport

import (
	"sync"
	"testing"
	"time"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/faults"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// pairWithFaults stands up two endpoints with an injector on t1's send path
// and returns t1 with a counter of the frames t2 received.
func pairWithFaults(t *testing.T, f *faults.Faults) (*TCP, func() int) {
	t1, arrivals := pairRecording(t, f)
	return t1, func() int { return len(arrivals()) }
}

// pairRecording is pairWithFaults returning t2's arrival times instead.
func pairRecording(t *testing.T, f *faults.Faults) (*TCP, func() []time.Time) {
	t.Helper()
	codec := Codec{Set: cstruct.SingleValueSet{}}
	var mu sync.Mutex
	var at []time.Time
	addrs := map[msg.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	t2, err := NewTCP(2, addrs, codec, func(msg.NodeID, msg.Message) {
		mu.Lock()
		at = append(at, time.Now())
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { t2.Close() })
	addrs[2] = t2.Addr()
	t1, err := NewTCP(1, addrs, codec, func(msg.NodeID, msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { t1.Close() })
	addrs[1] = t1.Addr()
	t1.SetFaults(f)
	return t1, func() []time.Time { mu.Lock(); defer mu.Unlock(); return append([]time.Time(nil), at...) }
}

func TestTCPFaultsDropSilently(t *testing.T) {
	f := faults.New(1)
	f.SetLoss(1)
	t1, count := pairWithFaults(t, f)
	for i := 0; i < 20; i++ {
		if err := t1.Send(2, msg.Heartbeat{From: 1, Epoch: uint64(i)}); err != nil {
			t.Fatalf("injected loss must look like a successful queue, got %v", err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if got := count(); got != 0 {
		t.Fatalf("loss=1 delivered %d frames", got)
	}
	if s := f.Stats(); s.Dropped != 20 {
		t.Fatalf("dropped = %d, want 20", s.Dropped)
	}
}

func TestTCPFaultsDuplicateEveryFrame(t *testing.T) {
	f := faults.New(1)
	f.SetDup(1)
	t1, count := pairWithFaults(t, f)
	const n = 10
	for i := 0; i < n; i++ {
		if err := t1.Send(2, msg.Heartbeat{From: 1, Epoch: uint64(i)}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for count() < 2*n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := count(); got != 2*n {
		t.Fatalf("dup=1 delivered %d frames, want %d", got, 2*n)
	}
}

func TestTCPFaultsPartitionAndHeal(t *testing.T) {
	f := faults.New(1)
	f.Partition([]msg.NodeID{1}, []msg.NodeID{2})
	t1, count := pairWithFaults(t, f)
	if err := t1.Send(2, msg.Heartbeat{From: 1}); err != nil {
		t.Fatalf("send into a partition must not error, got %v", err)
	}
	time.Sleep(30 * time.Millisecond)
	if count() != 0 {
		t.Fatal("partitioned endpoints exchanged a frame")
	}
	f.Heal()
	if err := t1.Send(2, msg.Heartbeat{From: 1}); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if count() != 1 {
		t.Fatalf("healed link delivered %d frames, want 1", count())
	}
}

// TestTCPFaultsDelay covers the delay line of the send path: an injected
// delay lands its copy at least that many ticks after the send, behind an
// undelayed copy of the same message, and a delayed copy still pending when
// the endpoint closes is dropped rather than sent.
func TestTCPFaultsDelay(t *testing.T) {
	// A twin injector on the same seed draws the same verdict, so the test
	// knows each delay without depending on the generator's values.
	verdict := func(seed int64, set func(*faults.Faults)) (*faults.Faults, []int64) {
		f, twin := faults.New(seed), faults.New(seed)
		set(f)
		set(twin)
		return f, twin.Deliveries(1, 2)
	}

	// Duplicate with a reorder bound but no reordering: the original goes
	// out at once, the copy after the drawn delay.
	f, d := verdict(1, func(f *faults.Faults) { f.SetReorder(0, 60); f.SetDup(1) })
	if len(d) != 2 || d[0] != 0 || d[1] < 1 {
		t.Fatalf("twin verdict %v, want one undelayed and one delayed copy", d)
	}
	t1, arrivals := pairRecording(t, f)
	sent := time.Now()
	if err := t1.Send(2, msg.Heartbeat{From: 1}); err != nil {
		t.Fatalf("send: %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for len(arrivals()) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	at := arrivals()
	if len(at) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(at))
	}
	delay := time.Duration(d[1]) * node.Tick
	if got := at[1].Sub(sent); got < delay {
		t.Fatalf("delayed copy landed %v after the send, want ≥ %v", got, delay)
	}
	if !at[0].Before(at[1]) || at[0].Sub(sent) >= delay {
		t.Fatalf("undelayed copy landed %v after the send, not ahead of the %v delay", at[0].Sub(sent), delay)
	}

	// Every delivery delayed; close the sender while the copy is pending.
	f, d = verdict(1, func(f *faults.Faults) { f.SetReorder(1, 200) })
	if len(d) != 1 || d[0] < 50 {
		t.Fatalf("twin verdict %v, want one copy delayed ≥ 50 ticks", d)
	}
	t1, arrivals = pairRecording(t, f)
	if err := t1.Send(2, msg.Heartbeat{From: 1}); err != nil {
		t.Fatalf("send: %v", err)
	}
	t1.Close()
	time.Sleep(time.Duration(d[0])*node.Tick + 50*time.Millisecond)
	if n := len(arrivals()); n != 0 {
		t.Fatalf("closed endpoint delivered %d delayed copies, want 0", n)
	}
}
