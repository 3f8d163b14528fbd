package proto

import (
	"rstore/internal/rpc"
	"rstore/internal/simnet"
)

// This file defines the wire format of the master replication group: the
// metadata log streamed from the primary to its standbys (MtReplAppend),
// the snapshot that opens a stream (MtReplHello) and the replica status
// probe (MtMasterStatus). The fencing error a non-primary returns to
// client-facing RPCs is in mastergroup.go, next to the code that follows it.

// ReplKind tags one metadata log record.
type ReplKind uint8

// Record kinds. Every state transition the master commits is streamed as
// exactly one of these; standbys apply them in sequence order and never
// re-derive state (e.g. dirtiness) on their own.
const (
	// ReplServer registers or updates a memory server (capacity, rkey,
	// incarnation epoch). Alive is implied true.
	ReplServer ReplKind = iota + 1
	// ReplServerDead marks a server dead (heartbeat sweep).
	ReplServerDead
	// ReplServerAlive revives a server without an incarnation bump (a
	// heartbeat from the same incarnation after a spurious death).
	ReplServerAlive
	// ReplRegion creates a region: full layout plus the allocation
	// idempotency token.
	ReplRegion
	// ReplRegionFree deletes a region and returns its extents.
	ReplRegionFree
	// ReplMapCount sets a region's map count (absolute, not a delta).
	ReplMapCount
	// ReplDirty marks one copy of a region dirty; Provisional means the
	// dirt came from a death sweep and a same-incarnation heartbeat may
	// absolve it.
	ReplDirty
	// ReplClean clears one copy's dirty flag (absolution).
	ReplClean
	// ReplLost sets or clears a region's lost latch.
	ReplLost
	// ReplCommit applies a finished repair: the copy's new extents (empty
	// when repaired in place), the region's new generation, and the
	// resulting degraded/dirty flags.
	ReplCommit
)

// ReplRecord is one entry of the replicated metadata log. It is a union:
// which fields are meaningful depends on Kind, but every field travels on
// the wire so the codec stays kind-agnostic.
type ReplRecord struct {
	Kind ReplKind

	// Server fields (ReplServer*).
	Node        simnet.NodeID
	Capacity    uint64
	RKey        uint32
	ServerEpoch uint64

	// Region fields. Name keys the region on both ends (regions are stored
	// by name); Region rides along for sanity checks.
	Region RegionID
	Name   string
	Info   *RegionInfo // ReplRegion only
	Token  uint64      // ReplRegion: allocation idempotency token
	Count  int         // ReplMapCount: absolute map count
	// DegradedCopies carries the per-copy placement-degraded flags decided
	// at allocation time (ReplRegion only); followers cannot re-derive them
	// without replaying placement.
	DegradedCopies []bool

	// Copy-scoped fields (ReplDirty/ReplClean/ReplCommit): 0 = primary,
	// 1.. = replicas.
	Copy        int
	Provisional bool // ReplDirty: death-sweep dirt, absolvable
	Lost        bool // ReplLost: latch value

	// Repair commit fields (ReplCommit).
	Extents    []Extent // nil/empty = repaired in place, layout unchanged
	Generation uint64
	Degraded   bool // copy landed on a placement-degraded node
	StillDirty bool // copy was re-dirtied during the repair
}

// EncodeReplRecord appends one log record.
func EncodeReplRecord(e *rpc.Encoder, r *ReplRecord) {
	e.U8(uint8(r.Kind))
	e.I64(int64(r.Node))
	e.U64(r.Capacity)
	e.U32(r.RKey)
	e.U64(r.ServerEpoch)
	e.U64(uint64(r.Region))
	e.String(r.Name)
	if r.Info != nil {
		e.Bool(true)
		EncodeRegionInfo(e, r.Info)
	} else {
		e.Bool(false)
	}
	e.U64(r.Token)
	e.U32(uint32(r.Count))
	encodeBools(e, r.DegradedCopies)
	e.U32(uint32(r.Copy))
	e.Bool(r.Provisional)
	e.Bool(r.Lost)
	encodeExtents(e, r.Extents)
	e.U64(r.Generation)
	e.Bool(r.Degraded)
	e.Bool(r.StillDirty)
}

// DecodeReplRecord reads one log record.
func DecodeReplRecord(d *rpc.Decoder) ReplRecord {
	r := ReplRecord{
		Kind:        ReplKind(d.U8()),
		Node:        simnet.NodeID(d.I64()),
		Capacity:    d.U64(),
		RKey:        d.U32(),
		ServerEpoch: d.U64(),
		Region:      RegionID(d.U64()),
		Name:        d.String(),
	}
	if d.Bool() {
		r.Info = DecodeRegionInfo(d)
	}
	r.Token = d.U64()
	r.Count = int(d.U32())
	r.DegradedCopies = decodeBools(d)
	r.Copy = int(d.U32())
	r.Provisional = d.Bool()
	r.Lost = d.Bool()
	r.Extents = decodeExtents(d)
	r.Generation = d.U64()
	r.Degraded = d.Bool()
	r.StillDirty = d.Bool()
	return r
}

// ReplAppend is the primary's log-stream message (MtReplAppend). Seq is the
// log sequence number of the first record; an empty Records slice is a pure
// lease-renewal beat.
type ReplAppend struct {
	Epoch   uint64
	Seq     uint64
	Records []ReplRecord
}

// Encode marshals the append.
func (a *ReplAppend) Encode(e *rpc.Encoder) {
	e.U64(a.Epoch)
	e.U64(a.Seq)
	e.U32(uint32(len(a.Records)))
	for i := range a.Records {
		EncodeReplRecord(e, &a.Records[i])
	}
}

// DecodeReplAppend unmarshals a ReplAppend.
func DecodeReplAppend(d *rpc.Decoder) ReplAppend {
	a := ReplAppend{Epoch: d.U64(), Seq: d.U64()}
	n := d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		a.Records = append(a.Records, DecodeReplRecord(d))
	}
	return a
}

// ReplAck is a standby's reply to MtReplHello and MtReplAppend. A rejection
// (OK=false) carries the standby's current epoch and believed leader so a
// fenced primary can step down toward the right successor; NeedSnapshot
// asks the primary to restart the stream with a fresh MtReplHello.
type ReplAck struct {
	OK           bool
	NeedSnapshot bool
	Epoch        uint64
	Leader       simnet.NodeID
}

// Encode marshals the ack.
func (a *ReplAck) Encode(e *rpc.Encoder) {
	e.Bool(a.OK)
	e.Bool(a.NeedSnapshot)
	e.U64(a.Epoch)
	e.I64(int64(a.Leader))
}

// DecodeReplAck unmarshals a ReplAck.
func DecodeReplAck(d *rpc.Decoder) ReplAck {
	return ReplAck{
		OK:           d.Bool(),
		NeedSnapshot: d.Bool(),
		Epoch:        d.U64(),
		Leader:       simnet.NodeID(d.I64()),
	}
}

// SnapServer is one memory server's replicated state in a snapshot.
type SnapServer struct {
	Node     simnet.NodeID
	Capacity uint64
	RKey     uint32
	Epoch    uint64
	Alive    bool
}

// SnapRegion is one region's replicated state in a snapshot. Per-copy
// slices are indexed primary-first like RegionInfo.Copies.
type SnapRegion struct {
	Info       RegionInfo
	MapCount   int
	AllocToken uint64
	Dirty      []bool
	DirtyEpoch []uint64
	DeathEpoch []uint64
	Degraded   []bool
	Lost       bool
}

// MasterSnapshot is the full metadata state a primary ships to a standby
// when (re)opening its replication stream. NextSeq positions the follower
// in the log; NextID seeds the region ID allocator.
type MasterSnapshot struct {
	Epoch   uint64
	NextSeq uint64
	NextID  uint64
	Servers []SnapServer
	Regions []SnapRegion
}

func encodeBools(e *rpc.Encoder, bs []bool) {
	e.U32(uint32(len(bs)))
	for _, b := range bs {
		e.Bool(b)
	}
}

func decodeBools(d *rpc.Decoder) []bool {
	n := d.U32()
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]bool, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, d.Bool())
	}
	return out
}

func encodeU64s(e *rpc.Encoder, vs []uint64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

func decodeU64s(d *rpc.Decoder) []uint64 {
	n := d.U32()
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]uint64, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, d.U64())
	}
	return out
}

// Encode marshals the snapshot.
func (s *MasterSnapshot) Encode(e *rpc.Encoder) {
	e.U64(s.Epoch)
	e.U64(s.NextSeq)
	e.U64(s.NextID)
	e.U32(uint32(len(s.Servers)))
	for _, sv := range s.Servers {
		e.I64(int64(sv.Node))
		e.U64(sv.Capacity)
		e.U32(sv.RKey)
		e.U64(sv.Epoch)
		e.Bool(sv.Alive)
	}
	e.U32(uint32(len(s.Regions)))
	for i := range s.Regions {
		r := &s.Regions[i]
		EncodeRegionInfo(e, &r.Info)
		e.U32(uint32(r.MapCount))
		e.U64(r.AllocToken)
		encodeBools(e, r.Dirty)
		encodeU64s(e, r.DirtyEpoch)
		encodeU64s(e, r.DeathEpoch)
		encodeBools(e, r.Degraded)
		e.Bool(r.Lost)
	}
}

// DecodeMasterSnapshot unmarshals a MasterSnapshot.
func DecodeMasterSnapshot(d *rpc.Decoder) MasterSnapshot {
	s := MasterSnapshot{
		Epoch:   d.U64(),
		NextSeq: d.U64(),
		NextID:  d.U64(),
	}
	ns := d.U32()
	for i := uint32(0); i < ns && d.Err() == nil; i++ {
		s.Servers = append(s.Servers, SnapServer{
			Node:     simnet.NodeID(d.I64()),
			Capacity: d.U64(),
			RKey:     d.U32(),
			Epoch:    d.U64(),
			Alive:    d.Bool(),
		})
	}
	nr := d.U32()
	for i := uint32(0); i < nr && d.Err() == nil; i++ {
		var r SnapRegion
		if info := DecodeRegionInfo(d); info != nil {
			r.Info = *info
		}
		r.MapCount = int(d.U32())
		r.AllocToken = d.U64()
		r.Dirty = decodeBools(d)
		r.DirtyEpoch = decodeU64s(d)
		r.DeathEpoch = decodeU64s(d)
		r.Degraded = decodeBools(d)
		r.Lost = d.Bool()
		s.Regions = append(s.Regions, r)
	}
	return s
}

// MasterStatus is one master replica's answer to MtMasterStatus.
type MasterStatus struct {
	Node simnet.NodeID
	// Role is "primary" or "standby".
	Role  string
	Epoch uint64
	// Primary is the node this replica believes leads the group (-1 when
	// unknown, e.g. a standby that has not heard from any primary yet).
	Primary simnet.NodeID
}

// Encode marshals the status.
func (m *MasterStatus) Encode(e *rpc.Encoder) {
	e.I64(int64(m.Node))
	e.String(m.Role)
	e.U64(m.Epoch)
	e.I64(int64(m.Primary))
}

// DecodeMasterStatus unmarshals a MasterStatus.
func DecodeMasterStatus(d *rpc.Decoder) MasterStatus {
	return MasterStatus{
		Node:    simnet.NodeID(d.I64()),
		Role:    d.String(),
		Epoch:   d.U64(),
		Primary: simnet.NodeID(d.I64()),
	}
}
