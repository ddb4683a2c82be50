// Package transport is the live network of the protocol agents: one TCP
// endpoint per node (TCP), carrying length-prefixed frames in a hand-rolled
// binary wire codec (Codec), with an optional fault injector on the send
// path. Every inter-node message of a live deployment crosses it; the
// discrete-event simulator remains the reference host for experiments.
//
// # Wire format
//
// Every encoded message starts with a version byte: verBinary (0x02) frames
// carry the hand-rolled binary encoding below; verGob (0x01) frames carry
// the legacy gob encoding of the flattened wire struct (gob.go), kept for
// one release as a differential-fuzz baseline. After the version byte a
// binary frame is:
//
//	[type tag: 1 byte]  [flags: 1 byte]  [fields...]
//
// where flags packs the optional-field markers (HasVal, Any, Multi, HasSeq)
// and the fields are fixed per type tag: integers are unsigned varints,
// ballots are four varints (MCount, MinCount, ID, RType), and commands,
// strings and node-ID sets are length-prefixed sections. The encoding is
// canonical — one byte string per message value — so encode∘decode is the
// identity on the wire form (FuzzCodecRoundTrip enforces it).
package transport

import (
	"fmt"
	"math"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
)

// Wire format versions: the first byte of every encoded frame.
const (
	// verGob marks a legacy gob-encoded frame (one release of backward
	// compatibility; see gob.go).
	verGob = 0x01
	// verBinary marks a hand-rolled binary frame.
	verBinary = 0x02
)

// Flag bits of a binary frame's flags byte.
const (
	// flagHasVal distinguishes a nil c-struct from ⊥ (P1b/P2a/P2b).
	flagHasVal = 1 << 0
	// flagAny marks a fast-round "any value" 2a (P2a).
	flagAny = 1 << 1
	// flagMulti marks a multi-instance P1bMulti promise (type tag TP1b).
	flagMulti = 1 << 2
	// flagHasSeq marks a proposal carrying its per-shard sequence number.
	flagHasSeq = 1 << 3
	// flagHasClient marks a proposal tagged with its issuing client's
	// (Client, Req) idempotency key — an unsequenced client submission
	// awaiting a server-side Seq stamp, or a stamped single-command proposal
	// whose key rides along for ingress failover.
	flagHasClient = 1 << 4
	// flagHasFloor marks a catch-up response carrying the responder's
	// nonzero retention floor (log compaction: a refusal when Floor > From).
	flagHasFloor = 1 << 5
)

// Codec encodes protocol messages for the TCP transport. It needs the
// deployment's c-struct set to rebuild values on receipt. The zero codec
// encodes the binary format; Legacy switches encoding to the gob fallback
// (decoding always accepts both, dispatched on the version byte).
type Codec struct {
	Set cstruct.Set
	// Legacy encodes frames with the previous release's gob codec instead
	// of the binary format. Decode is unaffected.
	Legacy bool
}

// AppendEncode serializes m onto dst and returns the extended slice. The
// result is owned by the caller; encoding a known message type into a slice
// with sufficient capacity performs no allocation beyond the message's own
// Commands() flattening.
func (c Codec) AppendEncode(dst []byte, m msg.Message) ([]byte, error) {
	if c.Legacy {
		return appendEncodeGob(dst, m)
	}
	return appendEncodeBinary(dst, m)
}

// Encode serializes m into a fresh slice.
func (c Codec) Encode(m msg.Message) ([]byte, error) {
	return c.AppendEncode(nil, m)
}

// Decode deserializes a message. It never retains data: everything the
// returned message references is copied out, so callers may reuse the slice
// immediately (the TCP reader decodes from one pooled scratch buffer).
func (c Codec) Decode(data []byte) (msg.Message, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("transport: decode: empty frame")
	}
	switch data[0] {
	case verBinary:
		return c.decodeBinary(data[1:])
	case verGob:
		return c.decodeGob(data[1:])
	default:
		return nil, fmt.Errorf("transport: decode: unknown wire version %#x", data[0])
	}
}

// encodable reports whether m is a known wire message type (the only
// encoding failure mode, checked by TCP.Send before queueing).
func encodable(m msg.Message) bool {
	switch m.(type) {
	case msg.Propose, msg.P1a, msg.P1b, msg.P1bMulti, msg.P2a, msg.P2b,
		msg.Stale, msg.Heartbeat, msg.Reply, msg.CatchupReq, msg.CatchupResp,
		msg.Fill, msg.Done, msg.SnapReq, msg.SnapResp:
		return true
	}
	return false
}

// --- binary encoding ---

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func appendBallot(dst []byte, b ballot.Ballot) []byte {
	dst = appendUvarint(dst, uint64(b.MCount))
	dst = appendUvarint(dst, uint64(b.MinCount))
	dst = appendUvarint(dst, uint64(b.ID))
	return appendUvarint(dst, uint64(b.RType))
}

func appendCmd(dst []byte, c cstruct.Cmd) []byte {
	dst = appendUvarint(dst, c.ID)
	dst = appendUvarint(dst, uint64(len(c.Key)))
	dst = append(dst, c.Key...)
	dst = append(dst, byte(c.Op))
	dst = appendUvarint(dst, uint64(len(c.Payload)))
	return append(dst, c.Payload...)
}

func appendCmds(dst []byte, cs []cstruct.Cmd) []byte {
	dst = appendUvarint(dst, uint64(len(cs)))
	for _, c := range cs {
		dst = appendCmd(dst, c)
	}
	return dst
}

func appendNodeIDs(dst []byte, ids []msg.NodeID) []byte {
	dst = appendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = appendUvarint(dst, uint64(id))
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendVal writes a non-nil c-struct as a length-prefixed command
// sequence. SingleValue is special-cased so the consensus hot path encodes
// without the slice allocation its Commands() would cost; History.Commands
// already returns its backing sequence allocation-free.
func appendVal(dst []byte, v cstruct.CStruct) []byte {
	if sv, ok := v.(cstruct.SingleValue); ok {
		if c, set := sv.Value(); set {
			dst = appendUvarint(dst, 1)
			return appendCmd(dst, c)
		}
		return appendUvarint(dst, 0)
	}
	return appendCmds(dst, v.Commands())
}

func appendEncodeBinary(dst []byte, m msg.Message) ([]byte, error) {
	switch mm := m.(type) {
	case msg.Propose:
		var flags byte
		if mm.HasSeq {
			flags |= flagHasSeq
		}
		hasClient := mm.Client != 0 || mm.Req != 0
		if hasClient {
			flags |= flagHasClient
		}
		dst = append(dst, verBinary, byte(msg.TPropose), flags)
		dst = appendCmd(dst, mm.Cmd)
		dst = appendNodeIDs(dst, mm.AccQuorum)
		dst = appendUvarint(dst, mm.Inst)
		if mm.HasSeq {
			dst = appendUvarint(dst, mm.Seq)
		}
		if hasClient {
			dst = appendUvarint(dst, uint64(mm.Client))
			dst = appendUvarint(dst, mm.Req)
		}
		return dst, nil
	case msg.P1a:
		dst = append(dst, verBinary, byte(msg.TP1a), 0)
		dst = appendUvarint(dst, mm.Inst)
		dst = appendBallot(dst, mm.Rnd)
		dst = appendUvarint(dst, uint64(mm.Coord))
		return appendUvarint(dst, uint64(mm.Shard)), nil
	case msg.P1b:
		hasVal := mm.VVal != nil
		var flags byte
		if hasVal {
			flags |= flagHasVal
		}
		dst = append(dst, verBinary, byte(msg.TP1b), flags)
		dst = appendUvarint(dst, mm.Inst)
		dst = appendBallot(dst, mm.Rnd)
		dst = appendUvarint(dst, uint64(mm.Acc))
		dst = appendBallot(dst, mm.VRnd)
		if hasVal {
			dst = appendVal(dst, mm.VVal)
		}
		return dst, nil
	case msg.P1bMulti:
		dst = append(dst, verBinary, byte(msg.TP1b), flagMulti)
		dst = appendBallot(dst, mm.Rnd)
		dst = appendUvarint(dst, uint64(mm.Acc))
		dst = appendUvarint(dst, uint64(mm.Shard))
		dst = appendUvarint(dst, uint64(len(mm.Votes)))
		for _, v := range mm.Votes {
			dst = appendUvarint(dst, v.Inst)
			dst = appendBallot(dst, v.VRnd)
			if v.VVal != nil {
				dst = append(dst, 1)
				dst = appendVal(dst, v.VVal)
			} else {
				dst = append(dst, 0)
			}
		}
		return dst, nil
	case msg.P2a:
		hasVal := mm.Val != nil
		var flags byte
		if hasVal {
			flags |= flagHasVal
		}
		if mm.Any {
			flags |= flagAny
		}
		dst = append(dst, verBinary, byte(msg.TP2a), flags)
		dst = appendUvarint(dst, mm.Inst)
		dst = appendBallot(dst, mm.Rnd)
		dst = appendUvarint(dst, uint64(mm.Coord))
		if hasVal {
			dst = appendVal(dst, mm.Val)
		}
		return dst, nil
	case msg.P2b:
		hasVal := mm.Val != nil
		var flags byte
		if hasVal {
			flags |= flagHasVal
		}
		dst = append(dst, verBinary, byte(msg.TP2b), flags)
		dst = appendUvarint(dst, mm.Inst)
		dst = appendBallot(dst, mm.Rnd)
		dst = appendUvarint(dst, uint64(mm.Acc))
		if hasVal {
			dst = appendVal(dst, mm.Val)
		}
		return dst, nil
	case msg.Stale:
		dst = append(dst, verBinary, byte(msg.TStale), 0)
		dst = appendUvarint(dst, mm.Inst)
		dst = appendUvarint(dst, uint64(mm.Acc))
		dst = appendBallot(dst, mm.Rnd)
		return appendBallot(dst, mm.Got), nil
	case msg.Heartbeat:
		dst = append(dst, verBinary, byte(msg.THeartbeat), 0)
		dst = appendUvarint(dst, uint64(mm.From))
		return appendUvarint(dst, mm.Epoch), nil
	case msg.Reply:
		dst = append(dst, verBinary, byte(msg.TReply), 0)
		dst = appendUvarint(dst, mm.CmdID)
		dst = appendUvarint(dst, uint64(mm.From))
		dst = appendUvarint(dst, mm.Inst)
		return appendString(dst, mm.Result), nil
	case msg.CatchupReq:
		dst = append(dst, verBinary, byte(msg.TCatchupReq), 0)
		dst = appendUvarint(dst, uint64(mm.Learner))
		dst = appendUvarint(dst, mm.From)
		return appendUvarint(dst, uint64(mm.Max)), nil
	case msg.CatchupResp:
		var flags byte
		if mm.Floor != 0 {
			flags |= flagHasFloor
		}
		dst = append(dst, verBinary, byte(msg.TCatchupResp), flags)
		dst = appendUvarint(dst, uint64(mm.Learner))
		dst = appendUvarint(dst, mm.From)
		dst = appendUvarint(dst, mm.Frontier)
		if mm.Floor != 0 {
			dst = appendUvarint(dst, mm.Floor)
		}
		return appendCmds(dst, mm.Cmds), nil
	case msg.Fill:
		dst = append(dst, verBinary, byte(msg.TFill), 0)
		dst = appendUvarint(dst, mm.Inst)
		return appendUvarint(dst, uint64(mm.Learner)), nil
	case msg.Done:
		dst = append(dst, verBinary, byte(msg.TDone), 0)
		dst = appendUvarint(dst, uint64(mm.From))
		dst = appendUvarint(dst, mm.Frontier)
		return appendUvarint(dst, mm.Watermark), nil
	case msg.SnapReq:
		dst = append(dst, verBinary, byte(msg.TSnapReq), 0)
		dst = appendUvarint(dst, uint64(mm.Learner))
		return appendUvarint(dst, mm.From), nil
	case msg.SnapResp:
		dst = append(dst, verBinary, byte(msg.TSnapResp), 0)
		dst = appendUvarint(dst, uint64(mm.Learner))
		dst = appendUvarint(dst, mm.Frontier)
		dst = appendUvarint(dst, uint64(mm.Crc))
		dst = appendUvarint(dst, uint64(mm.Seq))
		dst = appendUvarint(dst, uint64(mm.Total))
		dst = appendUvarint(dst, uint64(len(mm.Chunk)))
		return append(dst, mm.Chunk...), nil
	default:
		return nil, fmt.Errorf("transport: unknown message type %T", m)
	}
}

// --- binary decoding ---

// binReader walks a binary frame with sticky error handling; every read is
// bounds-checked so arbitrary input can never panic or allocate more than
// the frame's own length.
type binReader struct {
	b   []byte
	err error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("transport: decode: truncated or invalid %s", what)
	}
}

func (r *binReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	for i := 0; i < len(r.b); i++ {
		c := r.b[i]
		if i == 9 && c > 1 {
			r.fail(what)
			return 0
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			r.b = r.b[i+1:]
			return v
		}
		if i == 9 {
			break
		}
	}
	r.fail(what)
	return 0
}

func (r *binReader) u32(what string) uint32 {
	v := r.uvarint(what)
	if r.err == nil && v > math.MaxUint32 {
		r.fail(what)
	}
	return uint32(v)
}

func (r *binReader) byteVal(what string) byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail(what)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *binReader) ballot() ballot.Ballot {
	return ballot.Ballot{
		MCount:   r.u32("ballot"),
		MinCount: r.u32("ballot"),
		ID:       r.u32("ballot"),
		RType:    r.u32("ballot"),
	}
}

// bytesVal copies a length-prefixed byte section out of the frame (the
// frame buffer is pooled scratch, reused after Decode).
func (r *binReader) bytesVal(what string) []byte {
	n := r.uvarint(what)
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail(what)
		return nil
	}
	var out []byte
	if n > 0 {
		out = append([]byte(nil), r.b[:n]...)
	}
	r.b = r.b[n:]
	return out
}

// stringVal copies a length-prefixed string out of the frame.
func (r *binReader) stringVal(what string) string {
	n := r.uvarint(what)
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail(what)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *binReader) cmd() cstruct.Cmd {
	var c cstruct.Cmd
	c.ID = r.uvarint("cmd id")
	c.Key = r.stringVal("cmd key")
	c.Op = cstruct.OpKind(r.byteVal("cmd op"))
	n := r.uvarint("cmd payload")
	if r.err != nil {
		return c
	}
	if n > uint64(len(r.b)) {
		r.fail("cmd payload")
		return c
	}
	if n > 0 {
		// Copy: the frame buffer is pooled scratch, reused after Decode.
		c.Payload = append([]byte(nil), r.b[:n]...)
	}
	r.b = r.b[n:]
	return c
}

func (r *binReader) cmds() []cstruct.Cmd {
	n := r.uvarint("cmd count")
	if r.err != nil {
		return nil
	}
	// Every encoded command takes ≥4 bytes (id, klen, op, plen): a larger
	// count is corrupt, and checking first bounds the allocation by the
	// frame's own size.
	if n > uint64(len(r.b))/4 {
		r.fail("cmd count")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]cstruct.Cmd, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, r.cmd())
	}
	return out
}

func (r *binReader) nodeIDs() []msg.NodeID {
	n := r.uvarint("node count")
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) { // every ID takes ≥1 byte
		r.fail("node count")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]msg.NodeID, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, msg.NodeID(r.u32("node id")))
	}
	return out
}

// rebuild turns a wire command sequence back into a c-struct of the codec's
// set; has distinguishes nil from ⊥.
func (c Codec) rebuild(cmds []cstruct.Cmd, has bool) cstruct.CStruct {
	if !has {
		return nil
	}
	return cstruct.AppendSeq(c.Set.Bottom(), cmds)
}

func (c Codec) decodeBinary(data []byte) (msg.Message, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("transport: decode: truncated header")
	}
	typ, flags := msg.Type(data[0]), data[1]
	r := &binReader{b: data[2:]}
	var m msg.Message
	switch typ {
	case msg.TPropose:
		if flags&^(flagHasSeq|flagHasClient) != 0 {
			return nil, fmt.Errorf("transport: decode: bad propose flags %#x", flags)
		}
		mm := msg.Propose{HasSeq: flags&flagHasSeq != 0}
		mm.Cmd = r.cmd()
		mm.AccQuorum = r.nodeIDs()
		mm.Inst = r.uvarint("inst")
		if mm.HasSeq {
			mm.Seq = r.uvarint("seq")
		}
		if flags&flagHasClient != 0 {
			mm.Client = msg.NodeID(r.u32("client"))
			mm.Req = r.uvarint("req")
			if r.err == nil && mm.Client == 0 && mm.Req == 0 {
				// Canonical encoding: the flag is set iff the key is non-zero.
				r.fail("client key")
			}
		}
		m = mm
	case msg.TP1a:
		if flags != 0 {
			return nil, fmt.Errorf("transport: decode: bad 1a flags %#x", flags)
		}
		m = msg.P1a{
			Inst:  r.uvarint("inst"),
			Rnd:   r.ballot(),
			Coord: msg.NodeID(r.u32("coord")),
			Shard: r.u32("shard"),
		}
	case msg.TP1b:
		if flags&flagMulti != 0 {
			if flags != flagMulti {
				return nil, fmt.Errorf("transport: decode: bad multi-1b flags %#x", flags)
			}
			mm := msg.P1bMulti{
				Rnd:   r.ballot(),
				Acc:   msg.NodeID(r.u32("acc")),
				Shard: r.u32("shard"),
			}
			n := r.uvarint("vote count")
			if r.err == nil && n > uint64(len(r.b))/6 {
				// Each vote takes ≥6 bytes (inst, 4 ballot varints, has byte).
				r.fail("vote count")
			}
			for i := uint64(0); i < n && r.err == nil; i++ {
				v := msg.InstVote{Inst: r.uvarint("vote inst"), VRnd: r.ballot()}
				switch r.byteVal("vote has") {
				case 1:
					v.VVal = c.rebuild(r.cmds(), true)
				case 0:
				default:
					r.fail("vote has")
				}
				mm.Votes = append(mm.Votes, v)
			}
			m = mm
		} else {
			if flags&^flagHasVal != 0 {
				return nil, fmt.Errorf("transport: decode: bad 1b flags %#x", flags)
			}
			mm := msg.P1b{
				Inst: r.uvarint("inst"),
				Rnd:  r.ballot(),
				Acc:  msg.NodeID(r.u32("acc")),
				VRnd: r.ballot(),
			}
			if flags&flagHasVal != 0 {
				mm.VVal = c.rebuild(r.cmds(), true)
			}
			m = mm
		}
	case msg.TP2a:
		if flags&^(flagHasVal|flagAny) != 0 {
			return nil, fmt.Errorf("transport: decode: bad 2a flags %#x", flags)
		}
		mm := msg.P2a{
			Inst:  r.uvarint("inst"),
			Rnd:   r.ballot(),
			Coord: msg.NodeID(r.u32("coord")),
			Any:   flags&flagAny != 0,
		}
		if flags&flagHasVal != 0 {
			mm.Val = c.rebuild(r.cmds(), true)
		}
		m = mm
	case msg.TP2b:
		if flags&^flagHasVal != 0 {
			return nil, fmt.Errorf("transport: decode: bad 2b flags %#x", flags)
		}
		mm := msg.P2b{
			Inst: r.uvarint("inst"),
			Rnd:  r.ballot(),
			Acc:  msg.NodeID(r.u32("acc")),
		}
		if flags&flagHasVal != 0 {
			mm.Val = c.rebuild(r.cmds(), true)
		}
		m = mm
	case msg.TStale:
		if flags != 0 {
			return nil, fmt.Errorf("transport: decode: bad stale flags %#x", flags)
		}
		m = msg.Stale{
			Inst: r.uvarint("inst"),
			Acc:  msg.NodeID(r.u32("acc")),
			Rnd:  r.ballot(),
			Got:  r.ballot(),
		}
	case msg.THeartbeat:
		if flags != 0 {
			return nil, fmt.Errorf("transport: decode: bad heartbeat flags %#x", flags)
		}
		m = msg.Heartbeat{From: msg.NodeID(r.u32("from")), Epoch: r.uvarint("epoch")}
	case msg.TReply:
		if flags != 0 {
			return nil, fmt.Errorf("transport: decode: bad reply flags %#x", flags)
		}
		m = msg.Reply{
			CmdID:  r.uvarint("cmd id"),
			From:   msg.NodeID(r.u32("from")),
			Inst:   r.uvarint("inst"),
			Result: r.stringVal("result"),
		}
	case msg.TCatchupReq:
		if flags != 0 {
			return nil, fmt.Errorf("transport: decode: bad catchup-req flags %#x", flags)
		}
		m = msg.CatchupReq{
			Learner: msg.NodeID(r.u32("learner")),
			From:    r.uvarint("from"),
			Max:     r.u32("max"),
		}
	case msg.TCatchupResp:
		if flags&^flagHasFloor != 0 {
			return nil, fmt.Errorf("transport: decode: bad catchup-resp flags %#x", flags)
		}
		mm := msg.CatchupResp{
			Learner:  msg.NodeID(r.u32("learner")),
			From:     r.uvarint("from"),
			Frontier: r.uvarint("frontier"),
		}
		if flags&flagHasFloor != 0 {
			mm.Floor = r.uvarint("floor")
			if r.err == nil && mm.Floor == 0 {
				// Canonical encoding: the flag is set iff Floor is non-zero.
				r.fail("floor")
			}
		}
		mm.Cmds = r.cmds()
		m = mm
	case msg.TFill:
		if flags != 0 {
			return nil, fmt.Errorf("transport: decode: bad fill flags %#x", flags)
		}
		m = msg.Fill{
			Inst:    r.uvarint("inst"),
			Learner: msg.NodeID(r.u32("learner")),
		}
	case msg.TDone:
		if flags != 0 {
			return nil, fmt.Errorf("transport: decode: bad done flags %#x", flags)
		}
		m = msg.Done{
			From:      msg.NodeID(r.u32("from")),
			Frontier:  r.uvarint("frontier"),
			Watermark: r.uvarint("watermark"),
		}
	case msg.TSnapReq:
		if flags != 0 {
			return nil, fmt.Errorf("transport: decode: bad snap-req flags %#x", flags)
		}
		m = msg.SnapReq{
			Learner: msg.NodeID(r.u32("learner")),
			From:    r.uvarint("from"),
		}
	case msg.TSnapResp:
		if flags != 0 {
			return nil, fmt.Errorf("transport: decode: bad snap-resp flags %#x", flags)
		}
		m = msg.SnapResp{
			Learner:  msg.NodeID(r.u32("learner")),
			Frontier: r.uvarint("frontier"),
			Crc:      r.u32("crc"),
			Seq:      r.u32("seq"),
			Total:    r.u32("total"),
			Chunk:    r.bytesVal("chunk"),
		}
	default:
		return nil, fmt.Errorf("transport: decode: unknown wire type %d", typ)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("transport: decode: %d trailing bytes", len(r.b))
	}
	return m, nil
}
