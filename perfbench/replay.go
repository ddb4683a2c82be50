package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/batch"
	"mcpaxos/internal/classic"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/quorum"
	"mcpaxos/internal/smr"
	"mcpaxos/internal/snapshot"
	"mcpaxos/internal/storage"
	"mcpaxos/internal/transport"
	"mcpaxos/internal/wal"
)

// The layer replay feeds one workload's generated commands, packed at the
// batch size the live run measured, through each layer's public functions
// in the order a command meets them: client propose frame, ingress pack, 2a
// frame, acceptor (memory and WAL storage), 2b frame, learner tally, merge,
// unpack, apply, reply frame. Every call is a span of the instance's root
// span, so each layer's self time is read off the same spans.

const (
	replayOps = 2048
	// replayWALInstances bounds the WAL-backed steps: each costs fsyncs.
	replayWALInstances = 128
	// replaySnapshots is how many times the snapshot steps repeat.
	replaySnapshots = 5
	// replayClient is the client ID the replayed command IDs carry.
	replayClient = 1
)

// fakeEnv is a node.Env that keeps what a node sends instead of delivering
// it, on a frozen clock with timers that never fire.
type fakeEnv struct {
	id   msg.NodeID
	sent []msg.Message
}

func (e *fakeEnv) ID() msg.NodeID                   { return e.id }
func (e *fakeEnv) Now() int64                       { return 0 }
func (e *fakeEnv) Send(_ msg.NodeID, m msg.Message) { e.sent = append(e.sent, m) }
func (e *fakeEnv) SetTimer(int64, int)              {}

// takeP2b returns the first 2b the node sent and forgets everything sent.
func (e *fakeEnv) takeP2b() (msg.P2b, bool) {
	defer func() { e.sent = e.sent[:0] }()
	for _, m := range e.sent {
		if p, ok := m.(msg.P2b); ok {
			return p, true
		}
	}
	return msg.P2b{}, false
}

// replayConfig mirrors the default topology's protocol configuration.
func replayConfig(topo topology) (classic.Config, error) {
	qs, err := quorum.NewAcceptorSystem(topo.Acceptors, (topo.Acceptors-1)/2, 0)
	if err != nil {
		return classic.Config{}, err
	}
	cfg := classic.Config{Quorums: qs, Shards: topo.Shards, CoordsPerShard: topo.CoordsPerShard}
	for i := 0; i < topo.Shards*topo.CoordsPerShard; i++ {
		cfg.Coords = append(cfg.Coords, msg.NodeID(100+i))
	}
	for i := 0; i < topo.Acceptors; i++ {
		cfg.Acceptors = append(cfg.Acceptors, msg.NodeID(200+i))
	}
	for i := 0; i < topo.Learners; i++ {
		cfg.Learners = append(cfg.Learners, msg.NodeID(300+i))
	}
	return cfg, cfg.Validate()
}

// replayer holds the replay's span log and the span an fsync nests under.
type replayer struct {
	log   *spanLog
	cur   int
	curID uint64
}

func (r *replayer) timed(name string, id uint64, parent int, f func()) {
	i := r.log.begin(name, id, parent)
	f()
	r.log.end(i, id)
}

// sync is the WALs' fsync, timed as a child of the span that caused it.
func (r *replayer) sync(f *os.File) error {
	i := r.log.begin("wal.fsync", r.curID, r.cur)
	err := f.Sync()
	r.log.end(i, r.curID)
	return err
}

// layerReplay runs the replay in dir and returns its span log and the
// per-layer figures it yields. opsPerBatch is the live run's measured batch
// size; orderLen sizes the snapshot's apply order like the live learners'.
func layerReplay(w *workload, seed uint64, opsPerBatch float64, orderLen int, dir string, base time.Time) (*spanLog, map[string]float64, error) {
	cfg, err := replayConfig(defaultTopology)
	if err != nil {
		return nil, nil, err
	}
	r := &replayer{log: newSpanLog(base)}
	codec := transport.Codec{Set: cstruct.SingleValueSet{}}
	size := int(math.Round(opsPerBatch))
	if size < 1 {
		size = 1
	}

	stream := newOpStream(w, seed, inFlight) // not one of the live callers' streams
	cmds := make([]cstruct.Cmd, replayOps)
	for i := range cmds {
		o := stream.next()
		id := uint64(replayClient)<<40 | uint64(i+1)
		if o.Get {
			cmds[i] = smr.GetCmd(id, o.Key)
		} else {
			cmds[i] = smr.SetCmd(id, o.Key, o.Value)
		}
	}

	envMem := &fakeEnv{id: cfg.Acceptors[0]}
	accMem := classic.NewAcceptor(envMem, cfg, &storage.Disk{})
	walAcc, err := wal.Open(filepath.Join(dir, "acceptor-wal"), wal.Options{Sync: r.sync})
	if err != nil {
		return nil, nil, err
	}
	defer walAcc.Close()
	envWAL := &fakeEnv{id: cfg.Acceptors[0]}
	accWAL := classic.NewAcceptor(envWAL, cfg, walAcc)
	walDirect, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: r.sync})
	if err != nil {
		return nil, nil, err
	}
	defer walDirect.Close()
	learner := classic.NewLearner(&fakeEnv{id: cfg.Learners[0]}, cfg, func(uint64, cstruct.Cmd) {})
	var delivered []cstruct.Cmd
	merger := smr.NewMerger(func(_ uint64, c cstruct.Cmd) { delivered = append(delivered, c) })
	kv := smr.NewKVStore()
	rnd := ballot.Ballot{MinCount: 1}

	var buf []byte
	frame := func(kind string, id uint64, parent int, m msg.Message) error {
		var err error
		r.timed("transport.encode."+kind, id, parent, func() { buf, err = codec.AppendEncode(buf[:0], m) })
		if err != nil {
			return fmt.Errorf("encode %s: %w", kind, err)
		}
		r.timed("transport.decode."+kind, id, parent, func() { _, err = codec.Decode(buf) })
		if err != nil {
			return fmt.Errorf("decode %s: %w", kind, err)
		}
		return nil
	}

	appends := 0
	for inst := uint64(0); int(inst)*size < len(cmds); inst++ {
		group := cmds[int(inst)*size : min(int(inst+1)*size, len(cmds))]
		id := group[0].ID
		root := r.log.begin("replay.instance", id, -1)
		for _, c := range group {
			if err := frame("propose", c.ID, root, msg.Propose{Cmd: c, Client: replayClient, Req: c.ID & (1<<40 - 1)}); err != nil {
				return nil, nil, err
			}
		}
		packed := group[0]
		if len(group) > 1 {
			r.timed("batch.pack", id, root, func() { packed = batch.Pack(group) })
		}
		shard := cfg.ShardOf(inst)
		coords := cfg.ShardGroup(shard)
		p2a := msg.P2a{Inst: inst, Rnd: rnd, Coord: coords[0], Val: cstruct.NewSingleValue(packed)}
		if err := frame("p2a", id, root, p2a); err != nil {
			return nil, nil, err
		}
		// A coordinator quorum of the shard's group forwards the 2a; the
		// acceptor accepts on the last of them.
		deliver := func(env *fakeEnv, acc *classic.Acceptor) (msg.P2b, error) {
			for q := 0; q < cfg.CoordQuorumSize(shard); q++ {
				m := p2a
				m.Coord = coords[q]
				acc.OnMessage(coords[q], m)
			}
			p2b, ok := env.takeP2b()
			if !ok {
				return msg.P2b{}, fmt.Errorf("acceptor did not accept instance %d", inst)
			}
			return p2b, nil
		}
		var p2b msg.P2b
		r.timed("classic.acceptor.p2a", id, root, func() { p2b, err = deliver(envMem, accMem) })
		if err != nil {
			return nil, nil, err
		}
		if inst < replayWALInstances {
			r.cur, r.curID = r.log.begin("classic.acceptor.p2a_wal", id, root), id
			_, err = deliver(envWAL, accWAL)
			r.log.end(r.cur, id)
			if err != nil {
				return nil, nil, err
			}
		}
		if err := frame("p2b", id, root, p2b); err != nil {
			return nil, nil, err
		}
		r.timed("classic.learner.p2b", id, root, func() {
			for _, acc := range cfg.Acceptors[:cfg.Quorums.ClassicSize()] {
				m := p2b
				m.Acc = acc
				learner.OnMessage(acc, m)
			}
		})
		if _, ok := learner.Learned(inst); !ok {
			return nil, nil, fmt.Errorf("learner did not learn instance %d", inst)
		}
		delivered = delivered[:0]
		r.timed("smr.merge", id, root, func() { merger.Add(inst, packed) })
		if len(delivered) != 1 {
			return nil, nil, fmt.Errorf("merger delivered %d commands at instance %d", len(delivered), inst)
		}
		inner := group
		if len(group) > 1 {
			ok := false
			r.timed("batch.unpack", id, root, func() { inner, ok = batch.Unpack(delivered[0]) })
			if !ok || len(inner) != len(group) {
				return nil, nil, fmt.Errorf("unpack of instance %d failed", inst)
			}
		}
		for _, c := range inner {
			var res string
			r.timed("smr.apply", c.ID, root, func() { res = kv.Apply(c) })
			if err := frame("reply", c.ID, root, msg.Reply{CmdID: c.ID, From: cfg.Learners[0], Inst: inst, Result: res}); err != nil {
				return nil, nil, err
			}
		}
		r.log.end(root, id)

		if inst < replayWALInstances {
			rec := wal.Rec{Key: fmt.Sprintf("vote/%d", inst), Val: storage.VoteRec{Inst: inst, VRnd: rnd, Cmds: []cstruct.Cmd{packed}}}
			r.cur, r.curID = r.log.begin("wal.append", id, -1), id
			err = walDirect.Append([]wal.Rec{rec})
			r.log.end(r.cur, id)
			if err != nil {
				return nil, nil, err
			}
			appends++
		}
	}
	if err := replaySnapshot(r, w, orderLen, filepath.Join(dir, "snap")); err != nil {
		return nil, nil, err
	}

	ts := layerTimes(r.log)
	us := func(name string) float64 { return float64(timeOf(ts, name).meanTotal()) / 1e3 }
	ns := func(name string) float64 { return float64(timeOf(ts, name).meanTotal()) }
	ms := func(name string) float64 { return float64(timeOf(ts, name).meanTotal()) / 1e6 }
	out := map[string]float64{
		"batch.pack_ns":               ns("batch.pack"),
		"batch.unpack_ns":             ns("batch.unpack"),
		"classic.acceptor.p2a_us":     us("classic.acceptor.p2a"),
		"classic.acceptor.p2a_wal_us": us("classic.acceptor.p2a_wal"),
		"wal.append_us":               us("wal.append"),
		"wal.fsync_us":                us("wal.fsync"),
		"wal.fsyncs_per_append":       float64(walDirect.Fsyncs()) / float64(appends),
		"classic.learner.p2b_us":      us("classic.learner.p2b"),
		"smr.merge_us":                us("smr.merge"),
		"smr.apply_ns":                ns("smr.apply"),
		"snapshot.encode_ms":          ms("snapshot.encode"),
		"snapshot.save_ms":            ms("snapshot.save"),
		"snapshot.decode_ms":          ms("snapshot.decode"),
	}
	for _, kind := range []string{"propose", "p2a", "p2b", "reply"} {
		out["transport.encode_ns."+kind] = ns("transport.encode." + kind)
		out["transport.decode_ns."+kind] = ns("transport.decode." + kind)
	}
	return r.log, out, nil
}

// replaySnapshot encodes, saves and decodes a snapshot the size of the
// workload's state: every key written once, an apply order as long as the
// live learners', and a full reply cache.
func replaySnapshot(r *replayer, w *workload, orderLen int, dir string) error {
	kv := smr.NewKVStore()
	value := make([]byte, w.ValueBytes)
	for i := range value {
		value[i] = 'v'
	}
	for k := 0; k < w.Keys; k++ {
		kv.Apply(smr.SetCmd(0, fmt.Sprintf("k%05d", k), string(value)))
	}
	s := snapshot.Snapshot{State: kv.MarshalState(), Order: make([]uint64, orderLen)}
	for i := range s.Order {
		s.Order[i] = uint64(replayClient)<<40 | uint64(i+1)
	}
	for i := 0; i < 512 && i < orderLen; i++ {
		s.Replies = append(s.Replies, snapshot.Reply{CmdID: s.Order[orderLen-1-i], Inst: uint64(orderLen - 1 - i), Result: "ok"})
	}
	store, err := snapshot.OpenStore(dir)
	if err != nil {
		return err
	}
	for i := 0; i < replaySnapshots; i++ {
		s.Frontier = uint64(orderLen + i + 1)
		var blob []byte
		r.timed("snapshot.encode", s.Frontier, -1, func() { blob = snapshot.Encode(s) })
		r.timed("snapshot.save", s.Frontier, -1, func() { err = store.Save(s.Frontier, blob) })
		if err != nil {
			return err
		}
		var got snapshot.Snapshot
		r.timed("snapshot.decode", s.Frontier, -1, func() { got, err = snapshot.Decode(blob) })
		if err != nil {
			return err
		}
		if got.Frontier != s.Frontier || len(got.Order) != orderLen {
			return fmt.Errorf("snapshot round trip lost data")
		}
	}
	return nil
}
