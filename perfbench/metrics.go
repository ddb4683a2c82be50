package main

// metric names one reported figure. End-to-end metrics carry the bound by
// which a change may worsen them; per-layer metrics carry which end-to-end
// metric, on which workload, they are expected to move. BENCHMARK.json
// lists the same names, units and directions (the self-test checks it).
type metric struct {
	Name, Unit, Better string
	Bound              float64
	Moves              string
}

var endToEnd = []metric{
	{Name: "goodput_ops", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "success_share", Unit: "share", Better: "higher", Bound: 0.01},
	{Name: "outage_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	movesMemCPU   = "p50_ms and goodput_ops on mem-rw; not outage_ms on coord-crash"
	movesCrash    = "outage_ms and p99_ms on coord-crash; near 0 on mem-rw"
	movesDurable  = "p50_ms, p99_ms and goodput_ops on durable-compact only"
	movesHeap     = "heap_mb on durable-compact"
	movesMemApply = "p50_ms on mem-rw"
)

var perLayer = []metric{
	// Counters over the untraced window, per completed op where named so.
	{Name: "transport.frames_per_op", Unit: "count", Better: "lower", Moves: movesMemCPU},
	{Name: "transport.bytes_per_op", Unit: "B", Better: "lower", Moves: movesMemCPU},
	{Name: "transport.encode_ns_per_frame", Unit: "ns", Better: "lower", Moves: movesMemCPU},
	{Name: "transport.decode_ns_per_frame", Unit: "ns", Better: "lower", Moves: movesMemCPU},
	{Name: "deploy.client.retries_per_op", Unit: "count", Better: "lower", Moves: movesCrash},
	{Name: "deploy.client.rotations_per_op", Unit: "count", Better: "lower", Moves: movesCrash},
	{Name: "deploy.client.replay_probes_per_op", Unit: "count", Better: "lower", Moves: movesCrash},
	{Name: "deploy.client.dup_replies_per_op", Unit: "count", Better: "lower", Moves: "transport.bytes_per_op, then goodput_ops on mem-rw"},
	{Name: "deploy.ingress.ops_per_batch", Unit: "count", Better: "higher", Moves: movesMemCPU},
	{Name: "deploy.ingress.restamped", Unit: "count", Better: "lower", Moves: movesCrash},
	{Name: "deploy.ingress.filled", Unit: "count", Better: "lower", Moves: movesCrash},
	{Name: "classic.round_changes", Unit: "count", Better: "lower", Moves: movesCrash},
	{Name: "catchup.resyncs", Unit: "count", Better: "lower", Moves: "p99_ms on coord-crash"},
	{Name: "snapshot.saves", Unit: "count", Better: "lower", Moves: movesDurable},
	{Name: "snapshot.bytes", Unit: "B", Better: "lower", Moves: movesDurable},
	{Name: "snapshot.resident_log", Unit: "count", Better: "lower", Moves: movesHeap},
	{Name: "wal.disk_bytes", Unit: "B", Better: "lower", Moves: movesDurable},
	{Name: "wal.segments", Unit: "count", Better: "lower", Moves: movesDurable},
	{Name: "go.alloc_bytes_per_op", Unit: "B", Better: "lower", Moves: movesMemCPU},
	{Name: "go.mallocs_per_op", Unit: "count", Better: "lower", Moves: movesMemCPU},
	{Name: "go.gc_cpu_share", Unit: "share", Better: "lower", Moves: movesMemCPU},
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower", Moves: movesMemCPU},
	// Spans of the traced window.
	{Name: "op_us", Unit: "us", Better: "lower", Moves: "p50_ms on every workload"},
	{Name: "deploy.client.propose_us", Unit: "us", Better: "lower", Moves: movesMemApply},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Moves: "none: the cost of tracing itself"},
	// Spans of the layer replay.
	{Name: "batch.pack_ns", Unit: "ns", Better: "lower", Moves: movesMemCPU},
	{Name: "batch.unpack_ns", Unit: "ns", Better: "lower", Moves: movesMemCPU},
	{Name: "transport.encode_ns.propose", Unit: "ns", Better: "lower", Moves: movesMemCPU},
	{Name: "transport.encode_ns.p2a", Unit: "ns", Better: "lower", Moves: movesMemCPU},
	{Name: "transport.encode_ns.p2b", Unit: "ns", Better: "lower", Moves: movesMemCPU},
	{Name: "transport.encode_ns.reply", Unit: "ns", Better: "lower", Moves: movesMemCPU},
	{Name: "transport.decode_ns.propose", Unit: "ns", Better: "lower", Moves: movesMemCPU},
	{Name: "transport.decode_ns.p2a", Unit: "ns", Better: "lower", Moves: movesMemCPU},
	{Name: "transport.decode_ns.p2b", Unit: "ns", Better: "lower", Moves: movesMemCPU},
	{Name: "transport.decode_ns.reply", Unit: "ns", Better: "lower", Moves: movesMemCPU},
	{Name: "classic.acceptor.p2a_us", Unit: "us", Better: "lower", Moves: movesMemApply},
	{Name: "classic.acceptor.p2a_wal_us", Unit: "us", Better: "lower", Moves: movesDurable},
	{Name: "wal.append_us", Unit: "us", Better: "lower", Moves: movesDurable},
	{Name: "wal.fsync_us", Unit: "us", Better: "lower", Moves: movesDurable},
	{Name: "wal.fsyncs_per_append", Unit: "count", Better: "lower", Moves: movesDurable},
	{Name: "classic.learner.p2b_us", Unit: "us", Better: "lower", Moves: movesMemApply},
	{Name: "smr.merge_us", Unit: "us", Better: "lower", Moves: movesMemApply},
	{Name: "smr.apply_ns", Unit: "ns", Better: "lower", Moves: movesMemApply},
	{Name: "snapshot.encode_ms", Unit: "ms", Better: "lower", Moves: movesDurable},
	{Name: "snapshot.save_ms", Unit: "ms", Better: "lower", Moves: movesDurable},
	{Name: "snapshot.decode_ms", Unit: "ms", Better: "lower", Moves: movesDurable},
	// The unreplicated reference row: the cost of replication, not gated.
	{Name: "ref.single_node.goodput_ops", Unit: "1/s", Better: "higher", Moves: "reference only"},
	{Name: "ref.single_node.p50_ms", Unit: "ms", Better: "lower", Moves: "reference only"},
}

// counterMetrics turns the counter samples at a window's edges into the
// counter-based per-layer metrics; ops is the window's completed ops.
func counterMetrics(wn window, ops int) map[string]float64 {
	b, a := wn.before, wn.after
	per := func(x float64) float64 {
		if ops == 0 {
			return 0
		}
		return x / float64(ops)
	}
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	d := func(after, before uint64) float64 { return float64(after - before) }
	nb := b.replica.net.Plus(b.clientNet)
	na := a.replica.net.Plus(a.clientNet)
	frames := d(na.FramesOut, nb.FramesOut)
	return map[string]float64{
		"transport.frames_per_op":            per(frames),
		"transport.bytes_per_op":             per(d(na.BytesOut, nb.BytesOut)),
		"transport.encode_ns_per_frame":      ratio(d(na.EncodeNanos, nb.EncodeNanos), frames),
		"transport.decode_ns_per_frame":      ratio(d(na.DecodeNanos, nb.DecodeNanos), d(na.FramesIn, nb.FramesIn)),
		"deploy.client.retries_per_op":       per(d(a.client.Retries, b.client.Retries)),
		"deploy.client.rotations_per_op":     per(d(a.client.Rotations, b.client.Rotations)),
		"deploy.client.replay_probes_per_op": per(d(a.client.ReplayProbes, b.client.ReplayProbes)),
		"deploy.client.dup_replies_per_op":   per(d(a.client.DupReplies, b.client.DupReplies)),
		"deploy.ingress.ops_per_batch":       ratio(float64(ops), d(a.replica.stamped, b.replica.stamped)),
		"deploy.ingress.restamped":           d(a.replica.restamped, b.replica.restamped),
		"deploy.ingress.filled":              d(a.replica.filled, b.replica.filled),
		"classic.round_changes":              float64(wn.rounds),
		"catchup.resyncs":                    d(a.resyncs, b.resyncs),
		"snapshot.saves":                     d(a.compaction.Saves, b.compaction.Saves),
		"snapshot.bytes":                     float64(a.compaction.SnapBytes),
		"snapshot.resident_log":              float64(a.compaction.ResidentLog),
		"wal.disk_bytes":                     float64(a.walBytes),
		"wal.segments":                       float64(a.walSegs),
		"go.alloc_bytes_per_op":              per(a.proc.allocBytes - b.proc.allocBytes),
		"go.mallocs_per_op":                  per(a.proc.mallocs - b.proc.mallocs),
		"go.gc_cpu_share":                    ratio(a.proc.gcCPU-b.proc.gcCPU, a.proc.usedCPU-b.proc.usedCPU),
		"proc.cpu_us_per_op":                 per(float64(a.proc.procCPU-b.proc.procCPU) / 1e3),
	}
}
