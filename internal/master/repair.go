package master

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rstore/internal/memserver"
	"rstore/internal/proto"
	"rstore/internal/rdma"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
)

// The repair plane: when liveness declares a server dead (or a client
// reports a degraded write, or placement fell back onto overlapping
// nodes), the master schedules background tasks that restore each affected
// copy — allocating replacement extents on healthy servers, directing the
// destination server to pull the bytes from a surviving copy over the
// one-sided repair path, then atomically swapping the new extents into the
// region and bumping its generation. Clients never participate: the write
// path keeps succeeding degraded while repair catches up.

// repairKey identifies one copy of one region in the repair queue.
type repairKey struct {
	name string
	copy int
}

// repairTask is one queued repair.
type repairTask struct {
	key repairKey
	// rehome asks for relocation of a clean but placement-degraded copy
	// onto disjoint nodes (no dirty data involved; the copy is its own
	// source).
	rehome bool
	// enqueuedV stamps the task on the virtual timeline for the MTTR
	// histogram (master.repair_duration).
	enqueuedV simnet.VTime
}

// repairQueue is an unbounded deduplicating task queue. A key stays
// "present" from enqueue until finish, so re-enqueues of a copy already
// being repaired are suppressed — the dirty-epoch check at completion
// re-queues if the copy degraded again mid-repair.
type repairQueue struct {
	mu      sync.Mutex
	tasks   []repairTask
	present map[repairKey]bool
	wake    chan struct{}
}

func (q *repairQueue) init() {
	q.present = make(map[repairKey]bool)
	q.wake = make(chan struct{}, 64)
}

func (q *repairQueue) push(t repairTask) bool {
	q.mu.Lock()
	if q.present[t.key] {
		q.mu.Unlock()
		return false
	}
	q.present[t.key] = true
	q.tasks = append(q.tasks, t)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return true
}

func (q *repairQueue) pop() (repairTask, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return repairTask{}, false
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	return t, true
}

func (q *repairQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.tasks)
}

// finish releases the key so the copy can be queued again.
func (q *repairQueue) finish(k repairKey) {
	q.mu.Lock()
	delete(q.present, k)
	q.mu.Unlock()
}

// enqueueRepair queues one copy for repair (deduplicated).
func (m *Master) enqueueRepair(key repairKey, rehome bool) {
	t := repairTask{key: key, rehome: rehome, enqueuedV: m.dev.Network().Fabric().VNow()}
	if m.repair.push(t) {
		m.ctr.repairQueueDepth.Set(int64(m.repair.depth()))
	}
}

// dirtyRecords builds a ReplDirty for every copy with an extent on one of
// the given nodes. Used on dead transitions (the node's extents are
// unreachable) and on revival after death (the node's arena came back
// empty). presumed=true means the loss is a heartbeat verdict, not
// confirmed: apply then remembers the epoch of a copy with no other cause
// of dirtiness, so a same-incarnation heartbeat can absolve it (see
// absolveRecords). A re-registration after death passes presumed=false —
// the arena really is a new incarnation.
func (st *state) dirtyRecords(nodes []simnet.NodeID, presumed bool) []proto.ReplRecord {
	var recs []proto.ReplRecord
	for _, name := range st.regionNames() {
		rs := st.regionsByName[name]
		for j := 0; j < rs.copyCount(); j++ {
			if touches(rs.copyExtents(j), nodes...) {
				recs = append(recs, proto.ReplRecord{
					Kind:        proto.ReplDirty,
					Name:        name,
					Copy:        j,
					Provisional: presumed,
				})
			}
		}
	}
	return recs
}

// touches reports whether any extent of xs sits on one of nodes.
func touches(xs []proto.Extent, nodes ...simnet.NodeID) bool {
	for _, x := range xs {
		for _, n := range nodes {
			if x.Server == n {
				return true
			}
		}
	}
	return false
}

// dirtyCopiesLocked commits dirtyRecords(nodes, presumed) and queues every
// copy it dirtied for repair. Caller holds m.mu.
func (m *Master) dirtyCopiesLocked(nodes []simnet.NodeID, presumed bool) error {
	recs := m.st.dirtyRecords(nodes, presumed)
	if err := m.commitLocked(recs...); err != nil {
		return err
	}
	for i := range recs {
		m.enqueueRepair(repairKey{name: recs[i].Name, copy: recs[i].Copy}, false)
	}
	return nil
}

// absolveRecords builds the records that clear provisional death-induced
// dirtiness on copies touching node, which just heartbeat from the dead
// state (and is alive again in st): the same incarnation is back, its
// arena intact — the master's verdict was starvation, not death. A copy is
// absolved only when (a) the heartbeat sweep was the sole cause of its
// dirtiness (dirty epoch unchanged since; a degraded-write report in
// between keeps it dirty) and (b) every one of its servers is alive again,
// so it needs no repair at all. An absolved copy is a clean available
// copy, so its region's lost latch lifts with it.
func (st *state) absolveRecords(node simnet.NodeID) []proto.ReplRecord {
	var recs []proto.ReplRecord
	for _, name := range st.regionNames() {
		rs := st.regionsByName[name]
		absolved := false
		for j := 0; j < rs.copyCount(); j++ {
			if rs.dirty[j] && rs.deathEpoch[j] != 0 && rs.dirtyEpoch[j] == rs.deathEpoch[j] &&
				touches(rs.copyExtents(j), node) && st.copyLive(rs, j) {
				recs = append(recs, proto.ReplRecord{Kind: proto.ReplClean, Name: name, Copy: j})
				absolved = true
			}
		}
		if absolved && rs.lost {
			recs = append(recs, proto.ReplRecord{Kind: proto.ReplLost, Name: name, Lost: false})
		}
	}
	return recs
}

// rescheduleStalledLocked re-queues every dirty copy (repairs dropped
// earlier for lack of capacity or a clean source) and every clean
// placement-degraded copy (re-home now that capacity may exist); the queue
// drops the ones already queued or in flight. Caller holds m.mu; runs on
// server registration, absolution and promotion.
func (m *Master) rescheduleStalledLocked() {
	for name, rs := range m.st.regionsByName {
		for j := 0; j < rs.copyCount(); j++ {
			if rs.dirty[j] || rs.degraded[j] {
				m.enqueueRepair(repairKey{name: name, copy: j}, !rs.dirty[j])
			}
		}
	}
}

// repairWorker drains the repair queue until the master stops. Retryable
// failures (no capacity yet, transfer interrupted beyond resume) re-queue
// after RepairRetryDelay. The periodic poll tick backstops a lost wakeup.
func (m *Master) repairWorker() {
	defer m.wg.Done()
	for {
		task, ok := m.repair.pop()
		if !ok {
			select {
			case <-m.ctx.Done():
				return
			case <-m.repair.wake:
			case <-time.After(m.cfg.HeartbeatInterval):
			}
			continue
		}
		m.ctr.repairQueueDepth.Set(int64(m.repair.depth()))
		if m.runRepair(task) {
			select {
			case <-m.ctx.Done():
				return
			case <-time.After(m.cfg.RepairRetryDelay):
			}
			m.enqueueRepair(task.key, task.rehome)
		}
	}
}

// repairPlan is the immutable snapshot runRepair works from after the
// planning phase releases the master lock.
type repairPlan struct {
	key      repairKey
	regionID proto.RegionID // the region planned for; a same-named successor is a different one
	epoch    uint64         // dirty epoch at planning time
	dest     []proto.Extent
	realloc  bool // dest is a fresh reservation (the old extents are freed and the generation bumped at commit)
	fellBack bool // dest placement overlaps another copy
	rehome   bool
	sizes    []uint64 // per-extent lengths
}

// Planning outcomes that end a task without a transfer.
var (
	// errRepairMoot: the copy needs no repair (gone, already clean, no
	// longer degraded) or cannot be re-homed yet.
	errRepairMoot = errors.New("master: nothing to repair")
	// errNoSource: no clean copy on live servers remains to repair from.
	errNoSource = errors.New("master: no clean surviving copy")
)

// runRepair executes one task end to end. Returns true when the task
// should be retried after a delay.
func (m *Master) runRepair(task repairTask) (retry bool) {
	var plan repairPlan
	err := m.asPrimary(func() (err error) {
		plan, err = m.st.planRepair(task.key, task.rehome)
		if err == nil {
			m.underRepair[task.key] = true
		}
		if errors.Is(err, errNoSource) && !m.st.regionsByName[task.key.name].lost {
			// Every copy is dirty or on dead servers: the data is gone. Flag
			// the region lost; a later write-and-repair cycle cannot help, so
			// do not retry.
			m.ctr.regionsLost.Inc()
			if cerr := m.commitLocked(proto.ReplRecord{Kind: proto.ReplLost, Name: task.key.name, Lost: true}); cerr != nil {
				return cerr
			}
		}
		return err
	})
	if err != nil {
		// A stepped-down replica drops its queued repairs here (the new
		// primary re-derives them from the replicated dirty state); a moot
		// task is done; only a plan that found no space is worth retrying.
		m.repair.finish(task.key)
		if retry = errors.Is(err, ErrInsufficient); retry {
			m.ctr.repairsFailed.Inc()
		}
		return retry
	}
	m.ctr.repairsStarted.Inc()

	copied := make([]uint64, len(plan.dest))
	err = m.pullAllExtents(plan, copied)
	if err == nil {
		err = m.commitRepair(plan, task.enqueuedV)
	} else {
		m.abortRepair(plan)
	}
	if err != nil {
		m.ctr.repairsFailed.Inc()
	}
	return err != nil
}

// planRepair validates the task against current state and picks the
// destination placement: in place, or — when the copy's servers are dead,
// the geometry changed, or a re-home was requested — a fresh reservation
// that the caller holds until commitRepair or abortRepair.
func (st *state) planRepair(key repairKey, rehome bool) (repairPlan, error) {
	rs, exists := st.regionsByName[key.name]
	ci := key.copy
	if !exists || ci >= rs.copyCount() {
		return repairPlan{}, errRepairMoot
	}
	// A re-home request is only meaningful while the copy is clean and
	// still degraded; a copy that went dirty meanwhile takes the normal
	// repair path (which relocates it anyway). A clean copy with no re-home
	// pending was repaired via another path.
	rehome = rehome && !rs.dirty[ci]
	if rehome && !rs.degraded[ci] || !rehome && !rs.dirty[ci] {
		return repairPlan{}, errRepairMoot
	}
	src, ok := st.pickSource(rs, ci, rehome)
	if !ok {
		return repairPlan{}, errNoSource
	}

	plan := repairPlan{
		key:      key,
		regionID: rs.info.ID,
		epoch:    rs.dirtyEpoch[ci],
		dest:     append([]proto.Extent(nil), rs.copyExtents(ci)...),
		rehome:   rehome,
		sizes:    make([]uint64, len(src)),
	}
	for k := range src {
		plan.sizes[k] = src[k].Len
	}
	width := len(src)
	plan.realloc = rehome || len(plan.dest) != width || !st.copyLive(rs, ci)
	plan.fellBack = rs.degraded[ci] && !plan.realloc
	if plan.realloc {
		exclude := make(map[simnet.NodeID]bool)
		for j := 0; j < rs.copyCount(); j++ {
			if j == ci {
				continue
			}
			for _, x := range rs.copyExtents(j) {
				exclude[x.Server] = true
			}
		}
		servers := st.pickServers(width, exclude)
		if len(servers) < width {
			if rehome {
				// Still no disjoint placement; wait for the next capacity
				// change to try again (registration re-queues).
				return repairPlan{}, errRepairMoot
			}
			servers = st.pickServers(width, nil)
			plan.fellBack = true
		}
		if len(servers) < width {
			return repairPlan{}, fmt.Errorf("%w: %d of %d servers for repair", ErrInsufficient, len(servers), width)
		}
		var err error
		if plan.dest, err = allocateCopy(servers, rs.info.Size, rs.info.StripeUnit); err != nil {
			return repairPlan{}, err
		}
	}
	return plan, nil
}

// pickSource returns the extent set of the lowest-indexed clean copy whose
// servers are all alive. For re-homes the copy itself qualifies (it is
// clean; the transfer just relocates it).
func (st *state) pickSource(rs *regionState, ci int, rehome bool) ([]proto.Extent, bool) {
	for j := 0; j < rs.copyCount(); j++ {
		if (j != ci || rehome) && !rs.dirty[j] && st.copyLive(rs, j) {
			return append([]proto.Extent(nil), rs.copyExtents(j)...), true
		}
	}
	return nil, false
}

// pullAllExtents copies every extent of the plan from a surviving source
// into the destination, resuming per extent. When a source dies
// mid-transfer it re-picks one (the acceptance scenario "kill the repair
// source mid-repair") and resumes from the bytes already landed.
func (m *Master) pullAllExtents(plan repairPlan, copied []uint64) error {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		m.mu.Lock()
		rs, exists := m.st.regionsByName[plan.key.name]
		var src []proto.Extent
		srcOK := false
		if exists {
			src, srcOK = m.st.pickSource(rs, plan.key.copy, plan.rehome)
		}
		m.mu.Unlock()
		if !exists {
			return nil // commit will notice the region is gone
		}
		if !srcOK || len(src) != len(plan.dest) {
			return errNoSource
		}
		lastErr = m.pullFromSource(src, plan, copied)
		if lastErr == nil {
			return nil
		}
	}
	return lastErr
}

// pullFromSource runs one pass over the extents against a fixed source,
// advancing copied[k] as bytes land.
func (m *Master) pullFromSource(src []proto.Extent, plan repairPlan, copied []uint64) error {
	for k := range plan.dest {
		if copied[k] >= plan.sizes[k] {
			continue
		}
		if hook := m.cfg.RepairPullHook; hook != nil {
			hook(src[k])
		}
		req := proto.RepairPullRequest{
			Source:          src[k],
			DestAddr:        plan.dest[k].Addr,
			Len:             plan.sizes[k],
			StartOff:        copied[k],
			ChunkSize:       uint32(m.cfg.RepairChunk),
			RateBytesPerSec: m.cfg.RepairRateBytesPerSec,
		}
		resp, err := m.repairPull(plan.dest[k].Server, req)
		if err != nil {
			return err
		}
		if resp.Copied > copied[k] {
			m.ctr.repairBytes.Add(int64(resp.Copied - copied[k]))
			copied[k] = resp.Copied
		}
		if !resp.OK {
			return fmt.Errorf("master: repair pull extent %d: %s", k, resp.ErrMsg)
		}
	}
	return nil
}

// repairPull issues one MtRepairPull to the destination server.
func (m *Master) repairPull(node simnet.NodeID, req proto.RepairPullRequest) (proto.RepairPullResponse, error) {
	var e rpc.Encoder
	req.Encode(&e)
	payload, err := m.ctrlCall(node, 30*time.Second, proto.MtRepairPull, e.Bytes())
	if err != nil {
		return proto.RepairPullResponse{}, err
	}
	d := rpc.NewDecoder(payload)
	resp := proto.DecodeRepairPullResponse(d)
	if derr := d.Err(); derr != nil {
		return proto.RepairPullResponse{}, derr
	}
	return resp, nil
}

// ctrlCall runs one RPC, bounded by timeout, on the cached connection to a
// memory server's control endpoint (dialling it if needed); a connection
// whose call failed is retired.
func (m *Master) ctrlCall(node simnet.NodeID, timeout time.Duration, mt uint16, req []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(m.ctx, timeout)
	defer cancel()
	conn, err := m.ctrl.Get(ctx, node, func(ctx context.Context, node simnet.NodeID) (*rpc.Conn, error) {
		return rpc.Dial(ctx, m.dev, node, proto.MemCtrlService, nil, m.cfg.RPC)
	})
	if err != nil {
		return nil, err
	}
	resp, _, err := conn.Call(ctx, mt, req)
	if err != nil {
		m.ctrl.Drop(node, conn)
	}
	return resp, err
}

// dropPlanLocked ends a plan's hold on the master: the under-repair mark
// and, for a relocating plan, the reserved destination. Caller holds m.mu
// as the primary — after a step-down the allocators were (or will be)
// rebuilt from the new primary's snapshot, and the reservation no longer
// exists to be released.
func (m *Master) dropPlanLocked(plan repairPlan) {
	delete(m.underRepair, plan.key)
	if plan.realloc {
		m.st.release(plan.dest)
	}
}

// abortRepair backs out a failed plan so the copy can be re-queued.
func (m *Master) abortRepair(plan repairPlan) {
	// The only error is not-primary, and then there is nothing to back out.
	_ = m.asPrimary(func() error {
		m.dropPlanLocked(plan)
		return nil
	})
	m.repair.finish(plan.key)
}

// commitRecord builds the ReplCommit that swaps the repaired extents into
// the region and bumps the generation on layout change. A dirty-epoch
// mismatch (the copy degraded again while the transfer ran) leaves the
// copy dirty — repair then only re-transfers on top of already-landed
// bytes. errRepairMoot means the region was freed meanwhile.
func (st *state) commitRecord(plan repairPlan) (proto.ReplRecord, error) {
	rs, exists := st.regionsByName[plan.key.name]
	if !exists || rs.info.ID != plan.regionID {
		return proto.ReplRecord{}, errRepairMoot
	}
	rec := proto.ReplRecord{
		Kind:       proto.ReplCommit,
		Name:       plan.key.name,
		Copy:       plan.key.copy,
		Generation: rs.info.Generation,
		Degraded:   plan.fellBack,
		StillDirty: rs.dirtyEpoch[plan.key.copy] != plan.epoch,
	}
	if plan.realloc {
		rec.Extents = plan.dest
		rec.Generation++
	}
	return rec, nil
}

// commitRepair commits the plan's ReplCommit — dropping the reservation
// first, so apply carves the very same extents on the primary and on the
// standbys — then pushes an invalidation to the region's subscribers and
// re-queues a copy that degraded again mid-transfer. The error is a record
// the state rejected.
func (m *Master) commitRepair(plan repairPlan, enqueuedV simnet.VTime) error {
	var rec proto.ReplRecord
	var home simnet.NodeID
	err := m.asPrimary(func() (err error) {
		m.dropPlanLocked(plan)
		if rec, err = m.st.commitRecord(plan); err == nil {
			err = m.commitLocked(rec)
		}
		if err == nil {
			home = m.st.regionsByName[plan.key.name].info.HomeServer()
		}
		return err
	})
	m.repair.finish(plan.key)
	if errors.Is(err, errBadRecord) {
		return err
	}
	if err != nil {
		// Stepped down while the transfer ran (the new primary re-runs the
		// repair) or the region was freed: neither is a failed repair.
		return nil
	}

	m.ctr.repairsDone.Inc()
	if plan.rehome {
		m.ctr.rehomes.Inc()
	}
	doneV := m.dev.Network().Fabric().VNow()
	if doneV > enqueuedV {
		m.ctr.repairDuration.Record(doneV.Sub(enqueuedV))
	}
	if rec.StillDirty {
		m.enqueueRepair(plan.key, false)
	}
	if plan.realloc {
		go m.pushInvalidation(home, plan.regionID, rec.Generation)
	}
	return nil
}

// pushInvalidation tells the region's subscribers (via its home server's
// notify fan-out) that the layout changed. Best effort: clients that miss
// it still converge through the generation check on their next remap.
func (m *Master) pushInvalidation(home simnet.NodeID, id proto.RegionID, gen uint64) {
	ctx, cancel := context.WithTimeout(m.ctx, 5*time.Second)
	defer cancel()
	qp, err := m.dev.Dial(ctx, home, proto.MemNotifyService, m.pd, rdma.ConnOpts{SendDepth: 4, RecvDepth: 4})
	if err != nil {
		return
	}
	defer qp.Close()
	mr, err := m.pd.RegisterMemory(make([]byte, memserver.NotifyMsgSize), 0)
	if err != nil {
		return
	}
	memserver.EncodeNotifyMsg(mr.Bytes(), memserver.NotifyKindInvalidate, id, uint32(gen))
	if err := qp.PostSend(rdma.SendWR{
		Op:    rdma.OpSend,
		Local: rdma.SGE{MR: mr, Len: memserver.NotifyMsgSize},
	}); err != nil {
		return
	}
	_, _ = qp.SendCQ().Next(ctx)
}

// handleRegionStatus returns the repair plane's view of every region.
func (m *Master) handleRegionStatus(_ context.Context, _ simnet.NodeID, _ *rpc.Decoder) (*rpc.Encoder, error) {
	var e rpc.Encoder
	return &e, m.asPrimary(func() error {
		names := m.st.regionNames()
		e.U32(uint32(len(names)))
		for _, n := range names {
			rs := m.st.regionsByName[n]
			st := proto.RegionStatus{
				Info:     *rs.info,
				MapCount: rs.mapCount,
				Lost:     rs.lost,
				Copies:   make([]proto.CopyStatus, rs.copyCount()),
			}
			for j := range st.Copies {
				st.Copies[j] = proto.CopyStatus{
					Healthy:           m.st.copyLive(rs, j),
					Dirty:             rs.dirty[j],
					UnderRepair:       m.underRepair[repairKey{name: n, copy: j}],
					PlacementDegraded: rs.degraded[j],
				}
			}
			st.Encode(&e)
		}
		return nil
	})
}

// handleReportDegraded records a client's degraded write: the copy missed
// bytes, so it is dirty until repair re-syncs it. The response carries the
// region's current generation so a reporter on a stale layout remaps.
func (m *Master) handleReportDegraded(_ context.Context, _ simnet.NodeID, req *rpc.Decoder) (*rpc.Encoder, error) {
	r := proto.DecodeDegradedReport(req)
	if err := req.Err(); err != nil {
		return nil, err
	}
	var e rpc.Encoder
	return &e, m.asPrimary(func() error {
		rs, err := m.st.region(r.Name)
		if err != nil {
			return err
		}
		if r.Copy < 0 || r.Copy >= rs.copyCount() {
			return fmt.Errorf("master: copy %d out of range for %q", r.Copy, r.Name)
		}
		m.ctr.degradedReports.Inc()
		if err := m.commitLocked(proto.ReplRecord{Kind: proto.ReplDirty, Name: r.Name, Copy: r.Copy}); err != nil {
			return err
		}
		m.enqueueRepair(repairKey{name: r.Name, copy: r.Copy}, false)
		e.U64(rs.info.Generation)
		return nil
	})
}
