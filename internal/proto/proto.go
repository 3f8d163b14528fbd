// Package proto defines the control-plane protocol shared by RStore's
// master, memory servers, and clients: region metadata, the striped extent
// layout of the global address space, offset-to-fragment translation, and
// the binary wire encoding of every control message.
package proto

import (
	"errors"
	"fmt"

	"rstore/internal/rpc"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// Control message types served by the master.
const (
	MtRegisterServer uint16 = iota + 1
	MtHeartbeat
	MtAlloc
	MtMap
	MtUnmap
	MtFree
	MtClusterInfo
	MtListRegions
	// MtRemap refetches a region's metadata without changing its map count.
	// Unlike MtMap it is idempotent, so clients retry it freely while
	// recovering from a memory-server bounce.
	MtRemap
	// MtStats returns the master's aggregated telemetry: its own snapshot
	// plus the latest snapshot each memory server piggybacked on its
	// heartbeat.
	MtStats
	// MtRegionStatus returns every region's repair-plane view: full
	// metadata plus per-copy health/dirty/under-repair flags.
	MtRegionStatus
	// MtReportDegraded is a client telling the master a write could not
	// reach one copy of a region; the master marks the copy dirty and
	// schedules repair. The response carries the region's current
	// generation so the reporter can detect a stale layout.
	MtReportDegraded
	// MtTraceFetch asks the master to pull every buffered span for one
	// TraceID from its own ring and every alive memory server's (via
	// MtTracePull), merged into one response the caller assembles into a
	// causal tree.
	MtTraceFetch
	// MtMasterStatus returns a master replica's view of the replication
	// group: its role (primary/standby), the master epoch, and who it
	// believes the primary is. It is the only master RPC a standby answers,
	// so clients and probes can use it to locate the primary.
	MtMasterStatus
	// MtReplHello is the primary's stream-open message to a standby: it
	// carries the primary's epoch and a full metadata snapshot, resetting
	// the standby's state to the primary's log position.
	MtReplHello
	// MtReplAppend streams ordered metadata log records from the primary to
	// a standby. An empty append doubles as the primary's lease renewal
	// beat; a standby that misses them long enough starts an election.
	MtReplAppend
	// MtHealth returns the primary's health-engine state: the alert table,
	// the health-event ring, and the cluster-merged windowed telemetry the
	// last evaluation saw.
	MtHealth
)

// Control message types served by the memory servers' control endpoint.
const (
	// MtRepairPull asks a memory server to pull a byte range from a peer's
	// arena into its own via chunked one-sided reads (the repair plane's
	// server-to-server transfer).
	MtRepairPull uint16 = iota + 64
	// MtTracePull asks a memory server for every span of one TraceID in
	// its telemetry ring and flight recorder (the master's fan-out leg of
	// MtTraceFetch).
	MtTracePull
	// MtPing is a no-op round trip on the control endpoint. A master
	// candidate uses it during an election to confirm it can still reach
	// the cluster's memory servers before assuming the primaryship (each
	// successful round trip also advances the fabric's virtual clock, which
	// is what lets the candidate wait out the old primary's lease on
	// virtual time).
	MtPing
)

// Service names on the fabric.
const (
	// MasterService is the master's control RPC endpoint.
	MasterService = "rstore-master"
	// MemDataService is the memory servers' one-sided data endpoint;
	// clients connect QPs here and then never involve the server CPU.
	MemDataService = "rstore-mem"
	// MemNotifyService is the memory servers' notification endpoint.
	MemNotifyService = "rstore-notify"
	// MemCtrlService is the memory servers' control endpoint, used by the
	// master's repair plane (never by clients).
	MemCtrlService = "rstore-memctl"
)

// Protocol errors surfaced to API users.
var (
	ErrBadStripe = errors.New("proto: invalid stripe unit")
	ErrBadRange  = errors.New("proto: range outside region")
)

// RegionID names an allocated region cluster-wide.
type RegionID uint64

// Extent is one server-resident piece of a region: a window of the
// server's donated arena, addressable remotely through the arena's rkey.
type Extent struct {
	Server simnet.NodeID
	RKey   uint32
	// Addr is the byte offset of the extent within the server's arena
	// memory region.
	Addr uint64
	// Len is the extent length in bytes.
	Len uint64
}

// RegionInfo is the complete metadata a client needs to access a region.
// After Rmap delivers it, the data path never consults the master again —
// the paper's separation philosophy.
type RegionInfo struct {
	ID         RegionID
	Name       string
	Size       uint64
	StripeUnit uint64
	// Extents holds the primary copy, one extent per participating server,
	// in stripe order: global stripe unit u lives in Extents[u % len] at
	// unit index u / len.
	Extents []Extent
	// Replicas holds optional additional copies with identical geometry.
	Replicas [][]Extent
	// Generation counts layout changes: the master bumps it whenever the
	// repair plane swaps extents, so clients can tell a stale snapshot
	// (and its now-dangling remote addresses) from the current one.
	Generation uint64
}

// Copies returns every copy's extent slice: the primary at index 0, then
// the replicas. The slices alias the RegionInfo.
func (r *RegionInfo) Copies() [][]Extent {
	out := make([][]Extent, 0, 1+len(r.Replicas))
	out = append(out, r.Extents)
	out = append(out, r.Replicas...)
	return out
}

// HomeServer returns the node responsible for region-scoped coordination
// (notifications): the owner of the first extent.
func (r *RegionInfo) HomeServer() simnet.NodeID {
	if len(r.Extents) == 0 {
		return -1
	}
	return r.Extents[0].Server
}

// Servers returns the distinct primary servers in stripe order.
func (r *RegionInfo) Servers() []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(r.Extents))
	seen := make(map[simnet.NodeID]bool, len(r.Extents))
	for _, e := range r.Extents {
		if !seen[e.Server] {
			seen[e.Server] = true
			out = append(out, e.Server)
		}
	}
	return out
}

// Fragment is the result of address translation: one contiguous remote
// window plus the offset of its bytes within the caller's buffer.
type Fragment struct {
	Server simnet.NodeID
	RKey   uint32
	// Addr is the remote offset within the server's arena region.
	Addr uint64
	// Len is the fragment length in bytes.
	Len int
	// BufOff is where the fragment's bytes sit in the caller's buffer.
	BufOff int
}

// ExtentSizes returns the per-extent lengths for a region of size bytes
// striped in units of stripe across width servers. Extent k holds global
// units k, k+width, k+2*width, ...; the final unit may be partial.
func ExtentSizes(size, stripe uint64, width int) ([]uint64, error) {
	if stripe == 0 {
		return nil, ErrBadStripe
	}
	if width <= 0 {
		return nil, fmt.Errorf("%w: width %d", ErrBadStripe, width)
	}
	sizes := make([]uint64, width)
	units := size / stripe
	rem := size % stripe
	for k := 0; k < width; k++ {
		full := units / uint64(width)
		if uint64(k) < units%uint64(width) {
			full++
		}
		sizes[k] = full * stripe
	}
	if rem > 0 {
		k := units % uint64(width)
		sizes[k] += rem
	}
	return sizes, nil
}

// translate maps [off, off+n) of the region onto the given extent set.
func translate(info *RegionInfo, extents []Extent, off uint64, n int) ([]Fragment, error) {
	if n < 0 || off > info.Size || uint64(n) > info.Size-off {
		return nil, fmt.Errorf("%w: off=%d len=%d size=%d", ErrBadRange, off, n, info.Size)
	}
	if n == 0 {
		return nil, nil
	}
	su := info.StripeUnit
	width := uint64(len(extents))
	if su == 0 || width == 0 {
		return nil, ErrBadStripe
	}
	var frags []Fragment
	bufOff := 0
	remaining := uint64(n)
	for remaining > 0 {
		unit := off / su
		within := off % su
		chunk := su - within
		if chunk > remaining {
			chunk = remaining
		}
		ext := &extents[unit%width]
		addr := ext.Addr + (unit/width)*su + within
		// Coalesce with the previous fragment when contiguous on the same
		// server (happens when width == 1).
		if len(frags) > 0 {
			last := &frags[len(frags)-1]
			if last.Server == ext.Server && last.RKey == ext.RKey && last.Addr+uint64(last.Len) == addr {
				last.Len += int(chunk)
				off += chunk
				bufOff += int(chunk)
				remaining -= chunk
				continue
			}
		}
		frags = append(frags, Fragment{
			Server: ext.Server,
			RKey:   ext.RKey,
			Addr:   addr,
			Len:    int(chunk),
			BufOff: bufOff,
		})
		off += chunk
		bufOff += int(chunk)
		remaining -= chunk
	}
	return frags, nil
}

// Fragments maps [off, off+n) of the region's primary copy to remote
// windows.
func (r *RegionInfo) Fragments(off uint64, n int) ([]Fragment, error) {
	return translate(r, r.Extents, off, n)
}

// ReplicaFragments maps [off, off+n) onto replica copy i.
func (r *RegionInfo) ReplicaFragments(i int, off uint64, n int) ([]Fragment, error) {
	if i < 0 || i >= len(r.Replicas) {
		return nil, fmt.Errorf("%w: replica %d of %d", ErrBadRange, i, len(r.Replicas))
	}
	return translate(r, r.Replicas[i], off, n)
}

// EncodeExtent appends the extent to the encoder.
func EncodeExtent(e *rpc.Encoder, x Extent) {
	e.I64(int64(x.Server))
	e.U32(x.RKey)
	e.U64(x.Addr)
	e.U64(x.Len)
}

// DecodeExtent reads an extent.
func DecodeExtent(d *rpc.Decoder) Extent {
	return Extent{
		Server: simnet.NodeID(d.I64()),
		RKey:   d.U32(),
		Addr:   d.U64(),
		Len:    d.U64(),
	}
}

func encodeExtents(e *rpc.Encoder, xs []Extent) {
	e.U32(uint32(len(xs)))
	for _, x := range xs {
		EncodeExtent(e, x)
	}
}

func decodeExtents(d *rpc.Decoder) []Extent {
	n := d.U32()
	if d.Err() != nil || n == 0 {
		return nil
	}
	xs := make([]Extent, 0, n)
	for i := uint32(0); i < n; i++ {
		xs = append(xs, DecodeExtent(d))
	}
	return xs
}

// Clone returns a deep copy of the region metadata. The master replication
// plane uses it so snapshots and log records never alias live state.
func (r *RegionInfo) Clone() *RegionInfo {
	c := *r
	c.Extents = append([]Extent(nil), r.Extents...)
	c.Replicas = make([][]Extent, len(r.Replicas))
	for i, rep := range r.Replicas {
		c.Replicas[i] = append([]Extent(nil), rep...)
	}
	return &c
}

// EncodeRegionInfo appends the full region metadata.
func EncodeRegionInfo(e *rpc.Encoder, r *RegionInfo) {
	e.U64(uint64(r.ID))
	e.String(r.Name)
	e.U64(r.Size)
	e.U64(r.StripeUnit)
	e.U64(r.Generation)
	encodeExtents(e, r.Extents)
	e.U32(uint32(len(r.Replicas)))
	for _, rep := range r.Replicas {
		encodeExtents(e, rep)
	}
}

// DecodeRegionInfo reads region metadata.
func DecodeRegionInfo(d *rpc.Decoder) *RegionInfo {
	r := &RegionInfo{
		ID:         RegionID(d.U64()),
		Name:       d.String(),
		Size:       d.U64(),
		StripeUnit: d.U64(),
		Generation: d.U64(),
	}
	r.Extents = decodeExtents(d)
	nrep := d.U32()
	for i := uint32(0); i < nrep && d.Err() == nil; i++ {
		r.Replicas = append(r.Replicas, decodeExtents(d))
	}
	return r
}

// AllocRequest is the client's Ralloc message.
type AllocRequest struct {
	Name       string
	Size       uint64
	StripeUnit uint64
	// StripeWidth caps how many servers the region spreads over; zero
	// means all alive servers.
	StripeWidth int
	// Replicas is the number of additional copies (zero for none).
	Replicas int
	// Token makes the request idempotent across a master failover: the
	// client stamps each allocation with a unique token, the master records
	// it with the region, and a retried Alloc whose token matches the
	// existing region returns that region's metadata instead of
	// ErrRegionExists. Zero means no token (legacy callers).
	Token uint64
}

// Encode marshals the request.
func (a *AllocRequest) Encode(e *rpc.Encoder) {
	e.String(a.Name)
	e.U64(a.Size)
	e.U64(a.StripeUnit)
	e.U32(uint32(a.StripeWidth))
	e.U32(uint32(a.Replicas))
	e.U64(a.Token)
}

// DecodeAllocRequest unmarshals an AllocRequest.
func DecodeAllocRequest(d *rpc.Decoder) AllocRequest {
	return AllocRequest{
		Name:        d.String(),
		Size:        d.U64(),
		StripeUnit:  d.U64(),
		StripeWidth: int(d.U32()),
		Replicas:    int(d.U32()),
		Token:       d.U64(),
	}
}

// ServerInfo describes one memory server in cluster status responses.
type ServerInfo struct {
	Node     simnet.NodeID
	Capacity uint64
	Used     uint64
	Alive    bool
	// Epoch counts the server's incarnations: it starts at zero and is
	// bumped by the master each time a server re-registers after having
	// been marked dead. Clients compare epochs to tell a seamless
	// reconnect from a restart that lost the arena contents.
	Epoch uint64
}

// Encode marshals the server info.
func (s *ServerInfo) Encode(e *rpc.Encoder) {
	e.I64(int64(s.Node))
	e.U64(s.Capacity)
	e.U64(s.Used)
	e.Bool(s.Alive)
	e.U64(s.Epoch)
}

// DecodeServerInfo unmarshals a ServerInfo.
func DecodeServerInfo(d *rpc.Decoder) ServerInfo {
	return ServerInfo{
		Node:     simnet.NodeID(d.I64()),
		Capacity: d.U64(),
		Used:     d.U64(),
		Alive:    d.Bool(),
		Epoch:    d.U64(),
	}
}

// NodeStats is one node's telemetry snapshot in an MtStats response.
type NodeStats struct {
	Node  simnet.NodeID
	Role  string // "master", "memserver", ...
	Stats telemetry.Snapshot
}

// Encode marshals the node stats.
func (n *NodeStats) Encode(e *rpc.Encoder) error {
	e.I64(int64(n.Node))
	e.String(n.Role)
	return encodeTelemetry(e, n.Stats)
}

// DecodeNodeStats unmarshals a NodeStats.
func DecodeNodeStats(d *rpc.Decoder) (NodeStats, error) {
	n := NodeStats{
		Node: simnet.NodeID(d.I64()),
		Role: d.String(),
	}
	var err error
	n.Stats, err = decodeTelemetry(d)
	return n, err
}

// encodeTelemetry nests a snapshot in its own binary format (see
// telemetry.Snapshot.MarshalBinary) as a byte field — the one form in
// which telemetry crosses the control plane.
func encodeTelemetry(e *rpc.Encoder, s telemetry.Snapshot) error {
	blob, err := s.MarshalBinary()
	if err != nil {
		return err
	}
	e.Bytes32(blob)
	return nil
}

func decodeTelemetry(d *rpc.Decoder) (telemetry.Snapshot, error) {
	var s telemetry.Snapshot
	blob := d.Bytes32()
	if err := d.Err(); err != nil {
		return s, err
	}
	err := s.UnmarshalBinary(blob)
	return s, err
}

// RepairPullRequest asks a memory server to pull [StartOff, Len) of one
// extent from a surviving peer into its own arena at DestAddr. Resumable:
// a partial response reports how far it got, and the master retries with
// StartOff advanced (possibly against a different source).
type RepairPullRequest struct {
	// Source is the extent to read from (on a surviving peer).
	Source Extent
	// DestAddr is the byte offset in the local arena to copy into.
	DestAddr uint64
	// Len is the total extent length in bytes.
	Len uint64
	// StartOff is where to resume within the extent (0 for a fresh pull).
	StartOff uint64
	// ChunkSize bounds each one-sided read (0 = server default).
	ChunkSize uint32
	// RateBytesPerSec throttles the transfer on virtual time (0 = none).
	RateBytesPerSec uint64
}

// Encode marshals the request.
func (r *RepairPullRequest) Encode(e *rpc.Encoder) {
	EncodeExtent(e, r.Source)
	e.U64(r.DestAddr)
	e.U64(r.Len)
	e.U64(r.StartOff)
	e.U32(r.ChunkSize)
	e.U64(r.RateBytesPerSec)
}

// DecodeRepairPullRequest unmarshals a RepairPullRequest.
func DecodeRepairPullRequest(d *rpc.Decoder) RepairPullRequest {
	return RepairPullRequest{
		Source:          DecodeExtent(d),
		DestAddr:        d.U64(),
		Len:             d.U64(),
		StartOff:        d.U64(),
		ChunkSize:       d.U32(),
		RateBytesPerSec: d.U64(),
	}
}

// RepairPullResponse reports a pull's progress. A failed pull still
// returns the bytes copied so far (as a payload, not an RPC error) so the
// master can resume from Copied instead of restarting the extent.
type RepairPullResponse struct {
	// Copied is the prefix [0, Copied) of the extent now in place locally.
	Copied uint64
	// OK means the full length landed; otherwise ErrMsg says why not.
	OK     bool
	ErrMsg string
}

// Encode marshals the response.
func (r *RepairPullResponse) Encode(e *rpc.Encoder) {
	e.U64(r.Copied)
	e.Bool(r.OK)
	e.String(r.ErrMsg)
}

// DecodeRepairPullResponse unmarshals a RepairPullResponse.
func DecodeRepairPullResponse(d *rpc.Decoder) RepairPullResponse {
	return RepairPullResponse{
		Copied: d.U64(),
		OK:     d.Bool(),
		ErrMsg: d.String(),
	}
}

// CopyStatus is the master's repair-plane view of one copy of a region
// (primary or replica).
type CopyStatus struct {
	// Healthy means every server holding the copy is currently alive.
	Healthy bool
	// Dirty means the copy missed writes or lost its contents and must not
	// be used as a repair source.
	Dirty bool
	// UnderRepair means a repair task for this copy is in flight.
	UnderRepair bool
	// PlacementDegraded means the copy shares a node with another copy
	// (the anti-affinity fallback), so it does not add a failure domain.
	PlacementDegraded bool
}

// RegionStatus is one region's row in an MtRegionStatus response.
type RegionStatus struct {
	Info     RegionInfo
	MapCount int
	// Copies holds per-copy status: index 0 is the primary, then replicas.
	Copies []CopyStatus
	// Lost means no clean copy on live servers remains: the data is gone.
	Lost bool
}

// Encode marshals the region status.
func (r *RegionStatus) Encode(e *rpc.Encoder) {
	EncodeRegionInfo(e, &r.Info)
	e.U32(uint32(r.MapCount))
	e.Bool(r.Lost)
	e.U32(uint32(len(r.Copies)))
	for _, cs := range r.Copies {
		e.Bool(cs.Healthy)
		e.Bool(cs.Dirty)
		e.Bool(cs.UnderRepair)
		e.Bool(cs.PlacementDegraded)
	}
}

// DecodeRegionStatus unmarshals a RegionStatus.
func DecodeRegionStatus(d *rpc.Decoder) RegionStatus {
	var r RegionStatus
	info := DecodeRegionInfo(d)
	if info != nil {
		r.Info = *info
	}
	r.MapCount = int(d.U32())
	r.Lost = d.Bool()
	n := d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		r.Copies = append(r.Copies, CopyStatus{
			Healthy:           d.Bool(),
			Dirty:             d.Bool(),
			UnderRepair:       d.Bool(),
			PlacementDegraded: d.Bool(),
		})
	}
	return r
}

// DegradedReport is a client telling the master one copy of a region did
// not take a write (MtReportDegraded).
type DegradedReport struct {
	Name string
	// Copy is the copy index that missed the write: 0 = primary, 1.. =
	// replicas in order.
	Copy int
}

// Encode marshals the report.
func (r *DegradedReport) Encode(e *rpc.Encoder) {
	e.String(r.Name)
	e.U32(uint32(r.Copy))
}

// DecodeDegradedReport unmarshals a DegradedReport.
func DecodeDegradedReport(d *rpc.Decoder) DegradedReport {
	return DegradedReport{
		Name: d.String(),
		Copy: int(d.U32()),
	}
}

// TraceFetchRequest asks for every buffered span of one trace
// (MtTraceFetch to the master, MtTracePull to a memory server).
type TraceFetchRequest struct {
	Trace telemetry.TraceID
}

// Encode marshals the request.
func (r *TraceFetchRequest) Encode(e *rpc.Encoder) {
	e.U64(uint64(r.Trace))
}

// DecodeTraceFetchRequest unmarshals a TraceFetchRequest.
func DecodeTraceFetchRequest(d *rpc.Decoder) TraceFetchRequest {
	return TraceFetchRequest{Trace: telemetry.TraceID(d.U64())}
}

// TraceFetchResponse carries the spans one node (or, from the master, the
// whole cluster) buffered for a trace. Complete is false when any queried
// ring had already evicted part of the trace, or when a node could not be
// reached — the spans returned are real, but the set is known torn.
type TraceFetchResponse struct {
	Spans    []telemetry.Span
	Complete bool
}

// Encode marshals the response; spans travel in telemetry's span wire
// format nested as a byte field.
func (r *TraceFetchResponse) Encode(e *rpc.Encoder) error {
	blob, err := telemetry.MarshalSpans(r.Spans)
	if err != nil {
		return err
	}
	e.Bytes32(blob)
	e.Bool(r.Complete)
	return nil
}

// DecodeTraceFetchResponse unmarshals a TraceFetchResponse.
func DecodeTraceFetchResponse(d *rpc.Decoder) (TraceFetchResponse, error) {
	blob := d.Bytes32()
	complete := d.Bool()
	if err := d.Err(); err != nil {
		return TraceFetchResponse{}, err
	}
	spans, err := telemetry.UnmarshalSpans(blob)
	if err != nil {
		return TraceFetchResponse{}, err
	}
	return TraceFetchResponse{Spans: spans, Complete: complete}, nil
}
