package master

import (
	"errors"
	"fmt"
	"sort"

	"rstore/internal/proto"
	"rstore/internal/simnet"
)

// errBadRecord means a log record (or snapshot) does not fit the state it
// is applied to. On a standby the streams are out of sync and a snapshot
// must restart them; on the primary the decision code built a record its
// own state rejects, and the request fails instead of corrupting metadata.
var errBadRecord = errors.New("master: bad replication record")

// state is the replicated metadata — everything a standby must hold to
// take over byte-for-byte. It changes only by applying a log record
// (apply) or adopting a snapshot (restore), on the primary and on standbys
// alike; every other piece of code only reads it. The one sanctioned
// exception is tentative space reservation while planning a placement
// (allocateCopy), which is released again before the record that carves
// the space for real is applied.
//
// What is deliberately NOT here, because it is firsthand knowledge of the
// current primary and rebuilt after a failover: heartbeat recency and
// piggybacked telemetry (Master.beats), in-flight repair marks
// (Master.underRepair), the repair queue, and every counter and gauge.
type state struct {
	servers       map[simnet.NodeID]*serverState
	regionsByName map[string]*regionState
	nextID        proto.RegionID
}

func newState() state {
	return state{
		servers:       make(map[simnet.NodeID]*serverState),
		regionsByName: make(map[string]*regionState),
		nextID:        1,
	}
}

// serverState is the replicated view of one memory server.
type serverState struct {
	node  simnet.NodeID
	rkey  uint32
	alloc *spaceAllocator
	alive bool
	// epoch counts incarnations: it is bumped every time the server
	// re-registers after having been marked dead.
	epoch uint64
}

// regionState tracks a region, its map refcount, and the repair plane's
// per-copy bookkeeping. Copy index 0 is the primary, 1.. the replicas.
type regionState struct {
	info     *proto.RegionInfo
	mapCount int
	// dirty marks copies that missed writes or lost contents; a dirty copy
	// must not serve as a repair source.
	dirty []bool
	// dirtyEpoch counts dirty transitions per copy. Repair snapshots it at
	// start and only clears dirty at completion if unchanged, so a write
	// that degrades mid-repair re-queues instead of being lost.
	dirtyEpoch []uint64
	// deathEpoch, when nonzero, records the dirtyEpoch value at which a
	// heartbeat-loss sweep dirtied the copy and nothing else had: the
	// dirtiness is provisional (the server may be starved, not dead), and
	// is absolved if the same incarnation heartbeats again before any
	// other cause bumps the epoch. Confirmed content loss (a dead server
	// re-registering with an empty arena) never sets it.
	deathEpoch []uint64
	// degraded marks copies whose placement shares a node with another
	// copy (the anti-affinity fallback); repair re-homes them when capacity
	// returns.
	degraded []bool
	// lost means no clean copy on live servers remains.
	lost bool
	// allocToken is the idempotency token the allocating client stamped on
	// MtAlloc. A post-failover retry of the same allocation presents the
	// same token and gets the existing region back instead of
	// ErrRegionExists.
	allocToken uint64
}

func newRegionState(info *proto.RegionInfo) *regionState {
	n := 1 + len(info.Replicas)
	return &regionState{
		info:       info,
		dirty:      make([]bool, n),
		dirtyEpoch: make([]uint64, n),
		deathEpoch: make([]uint64, n),
		degraded:   make([]bool, n),
	}
}

// copyExtents returns copy i's extent slice (aliasing the RegionInfo).
func (rs *regionState) copyExtents(i int) []proto.Extent {
	if i == 0 {
		return rs.info.Extents
	}
	return rs.info.Replicas[i-1]
}

func (rs *regionState) copyCount() int { return 1 + len(rs.info.Replicas) }

// setCopyExtents swaps copy i's extents in the metadata.
func (rs *regionState) setCopyExtents(i int, xs []proto.Extent) {
	if i == 0 {
		rs.info.Extents = xs
	} else {
		rs.info.Replicas[i-1] = xs
	}
}

// markDirty flags copy i and bumps its dirty epoch; provisional records the
// epoch for absolution when nothing else had dirtied the copy.
func (rs *regionState) markDirty(i int, provisional bool) {
	wasDirty := rs.dirty[i]
	rs.dirty[i] = true
	rs.dirtyEpoch[i]++
	rs.deathEpoch[i] = 0
	if provisional && !wasDirty {
		rs.deathEpoch[i] = rs.dirtyEpoch[i]
	}
}

func (rs *regionState) markClean(i int) {
	rs.dirty[i] = false
	rs.deathEpoch[i] = 0
}

// region looks a region up by name.
func (st *state) region(name string) (*regionState, error) {
	rs, ok := st.regionsByName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrRegionNotFound, name)
	}
	return rs, nil
}

// regionCopy resolves the (Name, Copy) a copy-scoped record addresses.
func (st *state) regionCopy(rec *proto.ReplRecord) (*regionState, error) {
	rs, ok := st.regionsByName[rec.Name]
	if !ok || rec.Copy < 0 || rec.Copy >= rs.copyCount() {
		return nil, errBadRecord
	}
	return rs, nil
}

// regionNames returns every region name, sorted — the iteration order of
// everything whose output must not depend on Go's map order.
func (st *state) regionNames() []string {
	names := make([]string, 0, len(st.regionsByName))
	for n := range st.regionsByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// serverNodes returns every registered server, sorted by node.
func (st *state) serverNodes() []simnet.NodeID {
	nodes := make([]simnet.NodeID, 0, len(st.servers))
	for id := range st.servers {
		nodes = append(nodes, id)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}

// copyLive reports whether every extent of copy j sits on an alive server.
func (st *state) copyLive(rs *regionState, j int) bool {
	for _, x := range rs.copyExtents(j) {
		if s, ok := st.servers[x.Server]; !ok || !s.alive {
			return false
		}
	}
	return true
}

// carve reserves xs at their exact addresses in the per-server allocators,
// all or nothing. The primary's first-fit plan and a standby's replay go
// through this same AllocAt, so a disagreement between the two surfaces on
// the primary, at commit time.
func (st *state) carve(xs []proto.Extent) error {
	for i, x := range xs {
		s, ok := st.servers[x.Server]
		if !ok || s.alloc.AllocAt(x.Addr, x.Len) != nil {
			st.release(xs[:i])
			return errBadRecord
		}
	}
	return nil
}

// release returns xs to the per-server allocators.
func (st *state) release(xs []proto.Extent) {
	for _, x := range xs {
		if s, ok := st.servers[x.Server]; ok {
			// Only spans carve (or a placement plan) reserved are released,
			// so Free cannot fail short of allocator corruption.
			_ = s.alloc.Free(x.Addr, x.Len)
		}
	}
}

// carveRegion reserves every copy of info, all or nothing.
func (st *state) carveRegion(info *proto.RegionInfo) error {
	if err := st.carve(info.Extents); err != nil {
		return err
	}
	for i, rep := range info.Replicas {
		if err := st.carve(rep); err != nil {
			st.releaseRegion(&proto.RegionInfo{Extents: info.Extents, Replicas: info.Replicas[:i]})
			return err
		}
	}
	return nil
}

// releaseRegion returns every copy of info to the allocators.
func (st *state) releaseRegion(info *proto.RegionInfo) {
	st.release(info.Extents)
	for _, rep := range info.Replicas {
		st.release(rep)
	}
}

// apply executes one log record: the single implementation of every
// metadata transition. A record that does not fit returns errBadRecord and
// leaves the state as it was.
func (st *state) apply(rec *proto.ReplRecord) error {
	switch rec.Kind {
	case proto.ReplServer:
		s, ok := st.servers[rec.Node]
		if !ok {
			s = &serverState{node: rec.Node, alloc: newSpaceAllocator(rec.Capacity)}
			st.servers[rec.Node] = s
		}
		if s.rkey != rec.RKey {
			// The arena was re-registered under a new key (server bounce). The
			// master owns the allocator, so extent addresses stay valid in the
			// fresh same-capacity arena — but every region pointing at this
			// server must be rewritten to the new key or one-sided access would
			// be refused.
			for _, rs := range st.regionsByName {
				for j := 0; j < rs.copyCount(); j++ {
					xs := rs.copyExtents(j)
					for i := range xs {
						if xs[i].Server == rec.Node {
							xs[i].RKey = rec.RKey
						}
					}
				}
			}
		}
		s.rkey, s.epoch, s.alive = rec.RKey, rec.ServerEpoch, true
	case proto.ReplServerDead, proto.ReplServerAlive:
		s, ok := st.servers[rec.Node]
		if !ok {
			return errBadRecord
		}
		s.alive = rec.Kind == proto.ReplServerAlive
	case proto.ReplRegion:
		if rec.Info == nil || rec.Info.ID != st.nextID || st.regionsByName[rec.Info.Name] != nil {
			return errBadRecord
		}
		info := rec.Info.Clone()
		if err := st.carveRegion(info); err != nil {
			return err
		}
		rs := newRegionState(info)
		rs.allocToken = rec.Token
		copy(rs.degraded, rec.DegradedCopies)
		st.regionsByName[info.Name] = rs
		st.nextID++
	case proto.ReplRegionFree:
		rs, ok := st.regionsByName[rec.Name]
		if !ok {
			return errBadRecord
		}
		st.releaseRegion(rs.info)
		delete(st.regionsByName, rec.Name)
	case proto.ReplMapCount:
		rs, ok := st.regionsByName[rec.Name]
		if !ok {
			return errBadRecord
		}
		rs.mapCount = rec.Count
	case proto.ReplDirty:
		rs, err := st.regionCopy(rec)
		if err != nil {
			return err
		}
		rs.markDirty(rec.Copy, rec.Provisional)
	case proto.ReplClean:
		rs, err := st.regionCopy(rec)
		if err != nil {
			return err
		}
		rs.markClean(rec.Copy)
	case proto.ReplLost:
		rs, ok := st.regionsByName[rec.Name]
		if !ok {
			return errBadRecord
		}
		rs.lost = rec.Lost
	case proto.ReplCommit:
		rs, err := st.regionCopy(rec)
		if err != nil {
			return err
		}
		if len(rec.Extents) > 0 {
			// New extents never overlap the ones they replace (the planner
			// reserved them while the old copy still held its space), so
			// carve first: a record that does not fit changes nothing.
			xs := append([]proto.Extent(nil), rec.Extents...)
			if err := st.carve(xs); err != nil {
				return err
			}
			st.release(rs.copyExtents(rec.Copy))
			rs.setCopyExtents(rec.Copy, xs)
			rs.info.Generation = rec.Generation
		}
		if !rec.StillDirty {
			rs.markClean(rec.Copy)
		}
		rs.degraded[rec.Copy] = rec.Degraded
		rs.lost = false
	default:
		return errBadRecord
	}
	return nil
}

// snapshot captures the whole state, servers by node and regions by name,
// so two replicas in the same state encode the same bytes.
func (st *state) snapshot(epoch, seq uint64) *proto.MasterSnapshot {
	snap := &proto.MasterSnapshot{
		Epoch:   epoch,
		NextSeq: seq,
		NextID:  uint64(st.nextID),
	}
	for _, node := range st.serverNodes() {
		s := st.servers[node]
		snap.Servers = append(snap.Servers, proto.SnapServer{
			Node:     s.node,
			Capacity: s.alloc.Capacity(),
			RKey:     s.rkey,
			Epoch:    s.epoch,
			Alive:    s.alive,
		})
	}
	for _, name := range st.regionNames() {
		rs := st.regionsByName[name]
		snap.Regions = append(snap.Regions, proto.SnapRegion{
			Info:       *rs.info.Clone(),
			MapCount:   rs.mapCount,
			AllocToken: rs.allocToken,
			Dirty:      append([]bool(nil), rs.dirty...),
			DirtyEpoch: append([]uint64(nil), rs.dirtyEpoch...),
			DeathEpoch: append([]uint64(nil), rs.deathEpoch...),
			Degraded:   append([]bool(nil), rs.degraded...),
			Lost:       rs.lost,
		})
	}
	return snap
}

// restore replaces the whole state with the snapshot's, rebuilding the
// per-server allocators by carving every region's extents. A snapshot that
// does not fit itself leaves the state untouched.
func (st *state) restore(snap *proto.MasterSnapshot) error {
	ns := newState()
	ns.nextID = proto.RegionID(snap.NextID)
	for _, sv := range snap.Servers {
		ns.servers[sv.Node] = &serverState{
			node:  sv.Node,
			rkey:  sv.RKey,
			alloc: newSpaceAllocator(sv.Capacity),
			alive: sv.Alive,
			epoch: sv.Epoch,
		}
	}
	for i := range snap.Regions {
		sr := &snap.Regions[i]
		info := sr.Info.Clone()
		if ns.regionsByName[info.Name] != nil {
			return errBadRecord
		}
		if err := ns.carveRegion(info); err != nil {
			return err
		}
		rs := newRegionState(info)
		rs.mapCount = sr.MapCount
		rs.allocToken = sr.AllocToken
		copy(rs.dirty, sr.Dirty)
		copy(rs.dirtyEpoch, sr.DirtyEpoch)
		copy(rs.deathEpoch, sr.DeathEpoch)
		copy(rs.degraded, sr.Degraded)
		rs.lost = sr.Lost
		ns.regionsByName[info.Name] = rs
	}
	*st = ns
	return nil
}
