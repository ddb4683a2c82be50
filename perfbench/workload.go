package main

import (
	"fmt"
	"math/rand/v2"
)

// topology is the shape of one deployment: shards × coordinators per shard,
// acceptors and learners, all in this process on loopback TCP, with one
// client endpoint.
type topology struct {
	Shards, CoordsPerShard, Acceptors, Learners int
}

func (t topology) String() string {
	return fmt.Sprintf("%d shards x %d coords, %d acceptors, %d learners, 1 client, delay 0 (loopback)",
		t.Shards, t.CoordsPerShard, t.Acceptors, t.Learners)
}

// defaultTopology is the deployment every workload runs on.
var defaultTopology = topology{Shards: 2, CoordsPerShard: 3, Acceptors: 3, Learners: 2}

// singleNode is the unreplicated reference deployment of the traced run.
var singleNode = topology{Shards: 1, CoordsPerShard: 1, Acceptors: 1, Learners: 1}

// inFlight is the closed loop's width: that many callers, each waiting for
// its reply before sending its next call.
const inFlight = 8

// workload is one traffic mix and the deployment options it runs with.
type workload struct {
	Name string
	Why  string
	// Durable turns on acceptor WALs and learner snapshot stores; SnapEvery
	// is the snapshot interval in merged instances (0 = compaction off).
	Durable   bool
	SnapEvery int
	// GetShare is the share of reads; the rest are writes.
	GetShare float64
	// Keys is the key space; ZipfS > 1 draws keys Zipf(s) by rank, 0 draws
	// them uniformly.
	Keys  int
	ZipfS float64
	// ValueBytes is the size of every written value.
	ValueBytes int
	// KillAt, when > 0, kills shard 0's primary stamper at that share of the
	// measured window.
	KillAt float64
}

var workloads = []workload{
	{
		Name:     "mem-rw",
		Why:      "in-memory 50/50 Get/Set on Zipf(1.1) keys: only the CPU and network path (transport, mailboxes, ingress batching, coordinator, learner, apply) does work",
		GetShare: 0.5, Keys: 1024, ZipfS: 1.1, ValueBytes: 64,
	},
	// durable-compact runs here but is not a gated workload in
	// BENCHMARK.json: its goodput falls as the acceptor WALs age within a
	// deployment, so its run-to-run spread on a shared host exceeds the
	// largest bound the benchmark may set. The WAL and snapshot layers are
	// still timed by every traced run's layer replay.
	{
		Name:    "durable-compact",
		Why:     "WAL and snapshot stores on, snapshot every 256 instances, uniform Sets: fsync group commit and snapshot cut, save and truncation sit on the blocking path",
		Durable: true, SnapEvery: 256, Keys: 16384, ValueBytes: 128,
	},
	{
		Name: "coord-crash",
		Why:  "in-memory Sets with shard 0's primary stamper killed at one third of the window: the coordinator-quorum masking and the client retry and rotation path",
		Keys: 1024, ValueBytes: 16, KillAt: 1.0 / 3,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one generated client operation.
type op struct {
	Get   bool
	Key   string
	Value string // written value; empty for a Get
}

// opStream generates one caller's operations. The same (seed, caller) gives
// the same sequence, and every written value is unique, so the history
// checker can tell the writes apart.
type opStream struct {
	w      *workload
	caller int
	n      int
	r      *rand.Rand
	zipf   *rand.Zipf
	filler string
}

func newOpStream(w *workload, seed uint64, caller int) *opStream {
	r := rand.New(rand.NewPCG(seed, uint64(caller)+1))
	s := &opStream{w: w, caller: caller, r: r}
	if w.ZipfS > 1 {
		s.zipf = rand.NewZipf(r, w.ZipfS, 1, uint64(w.Keys-1))
	}
	b := make([]byte, w.ValueBytes)
	for i := range b {
		b[i] = 'a' + byte(r.IntN(26))
	}
	s.filler = string(b)
	return s
}

func (s *opStream) next() op {
	var k int
	if s.zipf != nil {
		k = int(s.zipf.Uint64())
	} else {
		k = s.r.IntN(s.w.Keys)
	}
	o := op{Key: fmt.Sprintf("k%05d", k)}
	if s.r.Float64() < s.w.GetShare {
		o.Get = true
		return o
	}
	s.n++
	tag := fmt.Sprintf("%d.%d.", s.caller, s.n)
	if len(tag) >= len(s.filler) {
		o.Value = tag
	} else {
		o.Value = tag + s.filler[len(tag):]
	}
	return o
}
