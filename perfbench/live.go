package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mcpaxos"
	"mcpaxos/internal/smr"
)

// deployment is one live stack: every node of the spec in this process,
// each behind its own loopback socket, plus one client endpoint.
type deployment struct {
	spec mcpaxos.ClusterSpec
	rep  *mcpaxos.Replica
	cli  *mcpaxos.Client
	dir  string // WAL and snapshot stores
}

// openDeployment stands the stack up on fresh ephemeral ports and waits for
// warm-up writes on every shard, so each shard's round is established and
// every socket is dialled before the caller measures anything.
func openDeployment(w *workload, topo topology, dir string) (*deployment, error) {
	spec := mcpaxos.LocalSpec(topo.Shards, topo.CoordsPerShard, topo.Acceptors, topo.Learners, 1)
	if w.Durable {
		spec.WALDir = filepath.Join(dir, "wal")
		spec.SnapshotDir = filepath.Join(dir, "snap")
	}
	spec.SnapshotEvery = w.SnapEvery
	spec, err := spec.ResolveEphemeral()
	if err != nil {
		return nil, err
	}
	d := &deployment{spec: spec, dir: dir}
	if d.rep, err = mcpaxos.OpenReplica(spec); err != nil {
		d.close()
		return nil, err
	}
	if d.cli, err = mcpaxos.DialClient(spec, spec.Clients[0].ID); err != nil {
		d.close()
		return nil, err
	}
	// The client spreads submissions round-robin over the shards, so 4 per
	// shard reach every shard's primary several times.
	calls := make([]*mcpaxos.Call, 0, 4*topo.Shards)
	for i := 0; i < 4*topo.Shards; i++ {
		calls = append(calls, d.cli.Set(fmt.Sprintf("warm-%d", i), "x"))
	}
	if err := d.cli.Wait(calls, 30*time.Second); err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up writes: %w", err)
	}
	return d, nil
}

// close stops the deployment. Its stores stay until the run's directory is
// removed, so no trial's file deletions land in the next trial's window.
func (d *deployment) close() {
	if d.cli != nil {
		d.cli.Close()
	}
	if d.rep != nil {
		d.rep.Close()
	}
}

// setUp opens a deployment in a fresh directory under parent and reports
// how long it took, in seconds.
func setUp(w *workload, topo topology, parent string) (*deployment, float64, error) {
	dir, err := os.MkdirTemp(parent, "deploy-")
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	d, err := openDeployment(w, topo, dir)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return d, time.Since(t0).Seconds(), nil
}

// record is one client operation as the benchmark saw it.
type record struct {
	op
	phase      int
	id         uint64
	start, end int64 // ns since the driver's base
	ok         bool
	out        string
}

// driver runs the closed loop against one deployment: inFlight callers,
// each issuing its next operation only after the previous one resolved.
type driver struct {
	d       *deployment
	base    time.Time
	streams [inFlight]*opStream
	recs    [inFlight][]record
	dog     *watchdog
}

func newDriver(d *deployment, w *workload, seed uint64, dog *watchdog) *driver {
	dr := &driver{d: d, base: time.Now(), dog: dog}
	for i := range dr.streams {
		dr.streams[i] = newOpStream(w, seed, i)
	}
	return dr
}

func (dr *driver) now() int64 { return int64(time.Since(dr.base)) }

// loop starts the callers; each stops issuing at until (ns since base). The
// returned wait blocks until every caller's last call has resolved, or the
// watchdog fired and the outstanding calls were recorded as failed.
func (dr *driver) loop(phase int, until int64, logs []*spanLog) (wait func()) {
	var wg sync.WaitGroup
	for c := 0; c < inFlight; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var log *spanLog
			if logs != nil {
				log = logs[c]
			}
			for dr.now() < until && !dr.dog.fired() {
				dr.recs[c] = append(dr.recs[c], dr.call(phase, dr.streams[c].next(), log))
			}
		}(c)
	}
	return wg.Wait
}

// call issues one operation and waits for it. With a span log it records
// the operation's span and, as its child, the span of the Propose call.
func (dr *driver) call(phase int, o op, log *spanLog) record {
	rec := record{op: o, phase: phase, start: dr.now()}
	root, child := -1, -1
	if log != nil {
		root = log.begin("op", 0, -1)
		child = log.begin("deploy.client.propose", 0, root)
	}
	var call *mcpaxos.Call
	if o.Get {
		call = dr.d.cli.Get(o.Key)
	} else {
		call = dr.d.cli.Set(o.Key, o.Value)
	}
	rec.id = call.ID
	if log != nil {
		log.end(child, call.ID)
	}
	select {
	case <-call.Done():
	case <-dr.dog.done:
		return rec // outstanding when the watchdog fired: failed
	}
	rec.end = dr.now()
	if log != nil {
		log.end(root, call.ID)
	}
	out, err := call.Result()
	rec.ok, rec.out = err == nil, out
	return rec
}

// warm runs the closed loop unmeasured for d.
func (dr *driver) warm(d time.Duration) {
	dr.loop(0, dr.now()+int64(d), nil)()
}

// window is one measured stretch of the closed loop.
type window struct {
	phase              int
	start, end, killAt int64    // ns since base; killAt 0 when nothing was killed
	before, after      counters // sampled only when the window collects
	rounds             int      // round changes over the window
	heapMB             float64
}

// measure runs the closed loop for d as the given phase. It kills shard 0's
// primary stamper at killAt × d when killAt > 0, samples the counters at both
// edges when collect is set, and reads the live heap after a forced GC at
// the window's end.
func (dr *driver) measure(phase int, d time.Duration, killAt float64, collect bool, logs []*spanLog) window {
	wn := window{phase: phase, start: dr.now()}
	wn.end = wn.start + int64(d)
	if collect {
		wn.before = readCounters(dr.d)
	} else {
		wn.before.replica = readReplicaSums(dr.d.rep)
	}
	rounds := dr.d.rep.ShardRounds()
	wait := dr.loop(phase, wn.end, logs)
	var lost replicaSums
	if killAt > 0 {
		sleepUntil(dr.base, wn.start+int64(killAt*float64(d)))
		victim := dr.d.spec.Coords[0].ID
		pre := readReplicaSums(dr.d.rep)
		wn.killAt = dr.now()
		if !dr.d.rep.Kill(victim) {
			dr.dog.trip(fmt.Sprintf("kill: coordinator %d not hosted", victim))
		}
		// The killed node's counters leave the replica's sums; carry them.
		lost = pre.minus(readReplicaSums(dr.d.rep))
	}
	sleepUntil(dr.base, wn.end)
	if collect {
		wn.after = readCounters(dr.d)
	} else {
		wn.after.replica = readReplicaSums(dr.d.rep)
	}
	wn.after.replica = wn.after.replica.plus(lost)
	// A killed coordinator cannot report its own round changes; the
	// acceptors' per-shard rounds show any that happened anyway.
	wn.rounds = wn.after.replica.rounds - wn.before.replica.rounds
	moved := 0
	for k, r := range dr.d.rep.ShardRounds() {
		if r != rounds[k] {
			moved++
		}
	}
	wn.rounds = max(wn.rounds, moved)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	wn.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	wait()
	return wn
}

func sleepUntil(base time.Time, at int64) {
	if d := time.Until(base.Add(time.Duration(at))); d > 0 {
		time.Sleep(d)
	}
}

// records returns every caller's records.
func (dr *driver) records() []record {
	var all []record
	for _, rs := range dr.recs {
		all = append(all, rs...)
	}
	return all
}

// sliceLen cuts a window into slices for the outage of a run with no kill:
// the median over slices of each slice's longest completion gap, so one
// stall moves one slice rather than the run's figure.
const sliceLen = time.Second

// e2e is the client-observed summary of one window.
type e2e struct {
	attempted, failed int
	completed         int     // successful completions inside the window
	goodput           float64 // completed per second
	p50, p99          float64 // ms, over every successful op issued in the window
	samples           int
	outage            float64 // ms
}

// summarize computes the window's end-to-end figures. Operations count
// toward the window they were issued in; goodput counts successful
// completions that land inside it. After a kill the outage is the longest
// gap between successive completions from the kill onward; without one it
// is the median over slices of each slice's longest gap.
func summarize(recs []record, wn window) e2e {
	length := wn.end - wn.start
	slices := max(1, int(time.Duration(length)/sliceLen))
	var (
		e     e2e
		lat   []float64
		done  = make([][]int64, slices)
		after []int64
	)
	for _, r := range recs {
		if r.phase == wn.phase {
			e.attempted++
			if !r.ok {
				e.failed++
			} else {
				lat = append(lat, float64(r.end-r.start)/1e6)
			}
		}
		if r.ok && r.end >= wn.start && r.end < wn.end {
			e.completed++
			k := int((r.end - wn.start) * int64(slices) / length)
			done[k] = append(done[k], r.end)
			if wn.killAt > 0 && r.end >= wn.killAt {
				after = append(after, r.end)
			}
		}
	}
	e.goodput = float64(e.completed) / (float64(length) / 1e9)
	sort.Float64s(lat)
	e.samples = len(lat)
	e.p50, e.p99 = percentile(lat, 0.50), percentile(lat, 0.99)
	if wn.killAt > 0 {
		e.outage = longestGap(wn.killAt, after)
	} else {
		gaps := make([]float64, slices)
		for k := range gaps {
			gaps[k] = longestGap(wn.start+int64(k)*length/int64(slices), done[k])
		}
		e.outage = median(gaps)
	}
	return e
}

// longestGap is the longest stretch, in ms, from "from" to the first time
// and between successive times.
func longestGap(from int64, times []int64) float64 {
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	gap, prev := 0.0, from
	for _, t := range times {
		gap = max(gap, float64(t-prev)/1e6)
		prev = t
	}
	return gap
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// readResult splits a KV Get result into the value and whether it was found.
func readResult(out string) (string, bool) {
	if out == smr.KVMissing {
		return "", false
	}
	return strings.TrimPrefix(out, "="), true
}
