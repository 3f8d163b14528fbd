package master

import (
	"context"
	"sync"
	"time"

	"rstore/internal/proto"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// The master replication group. One primary serves every client-facing RPC
// and streams an ordered metadata log (plus full snapshots on stream open)
// to its standbys over MtReplHello/MtReplAppend; standbys apply the log
// deterministically and answer only MtMasterStatus. A primary lease rides
// the append stream: empty appends are lease-renewal beats, and a standby
// that stops hearing them waits out the lease on *virtual* time before
// assuming the primaryship at a bumped master epoch. Stale primaries are
// fenced by epoch comparison on every replication message and step down
// when they learn of a successor.

// role is a master replica's position in the group.
type role int

const (
	roleStandby role = iota
	rolePrimary
)

func (r role) String() string {
	if r == rolePrimary {
		return "primary"
	}
	return "standby"
}

// repl is the primary-side log engine. Lock order: m.mu before repl.mu —
// appendLocked runs under m.mu so log order equals apply order, while
// streamers and commit waiters take only repl.mu.
type repl struct {
	mu   sync.Mutex
	cond *sync.Cond
	// term counts primaryship transitions on this node (promotions and
	// step-downs both bump it); streamers and waiters from an old term
	// observe the mismatch and exit. Written under m.mu and mu both, so
	// either lock suffices to read it.
	term uint64
	// baseSeq is the log seq of records[0]; nextSeq is the seq the next
	// record will take. The prefix every attached follower has acked is
	// discarded.
	baseSeq uint64
	records []proto.ReplRecord
	nextSeq uint64
	// followers maps an attached standby to the seq it has acked through.
	// A follower is registered at snapshot time (so records appended after
	// the snapshot are retained for it) and removed on any stream error.
	followers map[simnet.NodeID]uint64
}

func (r *repl) init() {
	r.cond = sync.NewCond(&r.mu)
	r.nextSeq = 1
	r.baseSeq = 1
	r.followers = make(map[simnet.NodeID]uint64)
}

// newTerm invalidates every streamer and commit waiter of the current
// term. Called on promotion and step-down (under m.mu).
func (r *repl) newTerm() uint64 {
	r.mu.Lock()
	r.term++
	t := r.term
	r.followers = make(map[simnet.NodeID]uint64)
	r.records = nil
	r.baseSeq = r.nextSeq
	r.cond.Broadcast()
	r.mu.Unlock()
	return t
}

// minAckLocked returns the lowest acked seq across attached followers.
func (r *repl) minAckLocked() uint64 {
	min := r.nextSeq
	for _, a := range r.followers {
		if a < min {
			min = a
		}
	}
	return min
}

// truncateLocked drops the log prefix every attached follower has acked.
func (r *repl) truncateLocked() {
	min := r.minAckLocked()
	if min > r.baseSeq {
		n := min - r.baseSeq
		r.records = append([]proto.ReplRecord(nil), r.records[n:]...)
		r.baseSeq = min
	}
}

// waitCommitted blocks until every attached follower (attaching later
// included) has acked the log as it stands at call time, or until the group
// has no attached followers. With zero standbys attached the group degrades
// to immediate commit — availability over durability, documented in
// DESIGN.md. It reports false when term, the term the caller read under
// m.mu, ended first: what becomes of the log tail is the successor's call.
func (r *repl) waitCommitted(term uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	target := r.nextSeq
	for r.term == term && len(r.followers) > 0 && r.minAckLocked() < target {
		r.cond.Wait()
	}
	return r.term == term
}

// appendLocked appends applied records to the replicated log. A group of
// one keeps no log. Caller holds m.mu and is the primary (commitLocked is
// the only caller).
func (m *Master) appendLocked(recs []proto.ReplRecord) {
	if len(m.peers) == 0 || len(recs) == 0 {
		return
	}
	r := &m.repl
	r.mu.Lock()
	if len(r.followers) > 0 {
		r.records = append(r.records, recs...)
	} else {
		// No follower attached (and none mid-snapshot): the log has no
		// reader, so advance the base with the seq instead of retaining.
		r.baseSeq = r.nextSeq + uint64(len(recs))
	}
	r.nextSeq += uint64(len(recs))
	r.cond.Broadcast()
	r.mu.Unlock()
	m.ctr.replRecords.Add(int64(len(recs)))
}

// setRoleGaugesLocked publishes the replica's role and epoch.
func (m *Master) setRoleGaugesLocked() {
	if m.role == rolePrimary {
		m.ctr.roleGauge.Set(1)
	} else {
		m.ctr.roleGauge.Set(0)
	}
	m.ctr.epochGauge.Set(int64(m.epoch))
}

// vnow reads the fabric's virtual frontier.
func (m *Master) vnow() simnet.VTime {
	return m.dev.Network().Fabric().VNow()
}

// beatInterval is the replication stream's keepalive cadence.
func (m *Master) beatInterval() time.Duration {
	return m.cfg.HeartbeatInterval / 2
}

// startPrimaryLocked launches the streaming machinery for a fresh term.
// Caller holds m.mu with role already rolePrimary.
func (m *Master) startPrimaryLocked() {
	term := m.repl.newTerm()
	epoch := m.epoch
	for _, peer := range m.peers {
		m.wg.Add(1)
		go m.streamTo(peer, term, epoch)
	}
}

// termActive reports whether the streamer's term is still the live one.
func (m *Master) termActive(term uint64) bool {
	if m.ctx.Err() != nil {
		return false
	}
	m.repl.mu.Lock()
	ok := m.repl.term == term
	m.repl.mu.Unlock()
	return ok
}

// sleepBeat waits one keepalive interval or until shutdown.
func (m *Master) sleepBeat() {
	select {
	case <-m.ctx.Done():
	case <-time.After(m.beatInterval()):
	}
}

// streamTo is the per-follower streamer goroutine for one term: it dials
// the standby, opens the stream with a snapshot hello, then pushes log
// records (or empty lease beats) until the term ends or the peer fails.
// It never runs an RPC while holding m.mu, so a dead follower cannot
// stall the master.
func (m *Master) streamTo(peer simnet.NodeID, term, epoch uint64) {
	defer m.wg.Done()
	var conn *rpc.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for m.termActive(term) {
		if conn == nil || conn.Err() != nil {
			if conn != nil {
				conn.Close()
			}
			conn = nil
			ctx, cancel := context.WithTimeout(m.ctx, m.cfg.HeartbeatInterval)
			c, err := rpc.Dial(ctx, m.dev, peer, proto.MasterService, nil, m.cfg.RPC)
			cancel()
			if err != nil {
				m.sleepBeat()
				continue
			}
			conn = c
		}
		hello, snapSeq, ok := m.buildHello(peer, term, epoch)
		if !ok {
			return
		}
		ack, err := m.replCall(conn, proto.MtReplHello, hello)
		if err != nil {
			m.detachFollower(peer, term)
			m.sleepBeat()
			continue
		}
		if !ack.OK {
			m.detachFollower(peer, term)
			m.considerStepDown(ack)
			m.sleepBeat()
			continue
		}
		m.streamRecords(conn, peer, term, epoch, snapSeq)
	}
}

// buildHello snapshots the full metadata state under m.mu and registers
// the peer as a follower at the snapshot's seq, so records appended while
// the hello is in flight are retained for it. Tentative repair reservations
// are not part of the state (only commits replicate), so a promoted standby
// replans from pre-plan allocator state and reproduces the primary's
// placement. ok=false means the term ended.
func (m *Master) buildHello(peer simnet.NodeID, term, epoch uint64) ([]byte, uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.repl.mu.Lock()
	if m.repl.term != term {
		m.repl.mu.Unlock()
		return nil, 0, false
	}
	seq := m.repl.nextSeq
	m.repl.followers[peer] = seq
	m.repl.mu.Unlock()

	snap := m.st.snapshot(epoch, seq)
	var e rpc.Encoder
	snap.Encode(&e)
	return e.Bytes(), seq, true
}

// streamRecords pushes log records to an attached follower until the term
// ends or the stream breaks. Empty appends double as lease beats.
func (m *Master) streamRecords(conn *rpc.Conn, peer simnet.NodeID, term, epoch, acked uint64) {
	for {
		recs, ok := m.nextBatch(peer, term, acked)
		if !ok {
			return
		}
		app := proto.ReplAppend{Epoch: epoch, Seq: acked, Records: recs}
		var e rpc.Encoder
		app.Encode(&e)
		ack, err := m.replCall(conn, proto.MtReplAppend, e.Bytes())
		if err != nil {
			m.detachFollower(peer, term)
			return
		}
		if !ack.OK {
			m.detachFollower(peer, term)
			if !ack.NeedSnapshot {
				m.considerStepDown(ack)
				m.sleepBeat()
			}
			return
		}
		acked += uint64(len(recs))
		m.ackFollower(peer, term, acked)
	}
}

// nextBatch returns the records beyond acked, blocking until some exist or
// a beat interval passes (then it returns an empty batch — the lease
// beat). ok=false ends the stream (term over, or the peer was detached).
func (m *Master) nextBatch(peer simnet.NodeID, term, acked uint64) ([]proto.ReplRecord, bool) {
	r := &m.repl
	// A time-bounded wait: the waker goroutine broadcasts after a beat so
	// the cond wait cannot outlive the keepalive cadence.
	deadline := time.Now().Add(m.beatInterval())
	wake := time.AfterFunc(m.beatInterval(), func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer wake.Stop()

	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.term != term {
			return nil, false
		}
		if _, attached := r.followers[peer]; !attached {
			return nil, false
		}
		if r.nextSeq > acked {
			start := acked - r.baseSeq
			batch := append([]proto.ReplRecord(nil), r.records[start:]...)
			return batch, true
		}
		if time.Now().After(deadline) {
			return nil, true // beat
		}
		r.cond.Wait()
	}
}

// ackFollower advances a follower's acked seq, truncates the shared log
// prefix, and wakes commit waiters.
func (m *Master) ackFollower(peer simnet.NodeID, term, acked uint64) {
	r := &m.repl
	r.mu.Lock()
	if r.term == term {
		if cur, ok := r.followers[peer]; ok && acked > cur {
			r.followers[peer] = acked
			r.truncateLocked()
		}
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// detachFollower drops a follower from the attach set (stream error or
// fencing); its unacked records stop holding the log, and commit waiters
// re-evaluate (a handler blocked on a dead follower unblocks).
func (m *Master) detachFollower(peer simnet.NodeID, term uint64) {
	r := &m.repl
	r.mu.Lock()
	if r.term == term {
		delete(r.followers, peer)
		r.truncateLocked()
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// replCall runs one replication RPC with a bounded context and decodes the
// ack.
func (m *Master) replCall(conn *rpc.Conn, mt uint16, payload []byte) (proto.ReplAck, error) {
	ctx, cancel := context.WithTimeout(m.ctx, 5*m.cfg.HeartbeatInterval)
	defer cancel()
	resp, _, err := conn.Call(ctx, mt, payload)
	if err != nil {
		return proto.ReplAck{}, err
	}
	d := rpc.NewDecoder(resp)
	ack := proto.DecodeReplAck(d)
	if derr := d.Err(); derr != nil {
		return proto.ReplAck{}, derr
	}
	return ack, nil
}

// considerStepDown reacts to a fencing rejection from a standby: a higher
// epoch always wins; at an equal epoch the lower node ID wins (both sides
// apply the same rule, so exactly one steps down).
func (m *Master) considerStepDown(ack proto.ReplAck) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.role != rolePrimary {
		return
	}
	if ack.Epoch > m.epoch || (ack.Epoch == m.epoch && ack.Leader >= 0 && ack.Leader < m.cfg.Node) {
		m.stepDownLocked(ack.Epoch, ack.Leader)
	}
}

// stepDownLocked demotes this replica to standby: the term ends (streamers
// exit, commit waiters unblock and their handlers answer not-primary, so
// clients retry against the successor). Caller holds m.mu.
func (m *Master) stepDownLocked(epoch uint64, leader simnet.NodeID) {
	m.role = roleStandby
	if epoch > m.epoch {
		m.epoch = epoch
	}
	m.leader = leader
	m.lastPrimaryWall = time.Now()
	m.lastPrimaryV = m.vnow()
	m.repl.newTerm()
	m.setRoleGaugesLocked()
}

// handleMasterStatus answers from any role — it is how probes, clients,
// and peers locate the primary.
func (m *Master) handleMasterStatus(_ context.Context, _ simnet.NodeID, _ *rpc.Decoder) (*rpc.Encoder, error) {
	m.mu.Lock()
	st := proto.MasterStatus{
		Node:    m.cfg.Node,
		Role:    m.role.String(),
		Epoch:   m.epoch,
		Primary: m.leader,
	}
	m.mu.Unlock()
	var e rpc.Encoder
	st.Encode(&e)
	return &e, nil
}

// handleReplHello is the standby side of a stream open: accept the
// primary's snapshot (resetting all local state to it) iff its epoch wins.
func (m *Master) handleReplHello(_ context.Context, from simnet.NodeID, req *rpc.Decoder) (*rpc.Encoder, error) {
	snap := proto.DecodeMasterSnapshot(req)
	if err := req.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.acceptLeaderLocked(snap.Epoch, from) {
		return replAckEnc(proto.ReplAck{OK: false, Epoch: m.epoch, Leader: m.leader}), nil
	}
	if err := m.st.restore(&snap); err != nil {
		return nil, err
	}
	m.role = roleStandby
	m.epoch = snap.Epoch
	m.leader = from
	m.applySeq = snap.NextSeq
	m.lastPrimaryWall = time.Now()
	m.lastPrimaryV = m.vnow()
	m.publishGaugesLocked()
	m.setRoleGaugesLocked()
	return replAckEnc(proto.ReplAck{OK: true, Epoch: m.epoch, Leader: m.leader}), nil
}

// handleReplAppend applies a log batch (or lease beat) from the primary.
func (m *Master) handleReplAppend(_ context.Context, from simnet.NodeID, req *rpc.Decoder) (*rpc.Encoder, error) {
	app := proto.DecodeReplAppend(req)
	if err := req.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if app.Epoch > m.epoch {
		// A newer primary exists but we have not seen its snapshot yet;
		// ask for the stream to restart with a hello.
		return replAckEnc(proto.ReplAck{OK: false, NeedSnapshot: true, Epoch: m.epoch, Leader: m.leader}), nil
	}
	if !m.acceptLeaderLocked(app.Epoch, from) {
		return replAckEnc(proto.ReplAck{OK: false, Epoch: m.epoch, Leader: m.leader}), nil
	}
	if app.Seq != m.applySeq {
		return replAckEnc(proto.ReplAck{OK: false, NeedSnapshot: true, Epoch: m.epoch, Leader: m.leader}), nil
	}
	for i := range app.Records {
		if err := m.st.apply(&app.Records[i]); err != nil {
			// The streams are out of sync (and the batch's earlier records
			// already applied); a fresh snapshot is the safety valve.
			return replAckEnc(proto.ReplAck{OK: false, NeedSnapshot: true, Epoch: m.epoch, Leader: m.leader}), nil
		}
	}
	if len(app.Records) > 0 {
		m.publishGaugesLocked()
	}
	m.applySeq += uint64(len(app.Records))
	m.lastPrimaryWall = time.Now()
	m.lastPrimaryV = m.vnow()
	return replAckEnc(proto.ReplAck{OK: true, Epoch: m.epoch, Leader: m.leader}), nil
}

func replAckEnc(a proto.ReplAck) *rpc.Encoder {
	var e rpc.Encoder
	a.Encode(&e)
	return &e
}

// acceptLeaderLocked decides whether a replication message from `from` at
// `epoch` wins over local state: a strictly higher epoch always does (a
// local primary steps down first); an equal epoch only from the already-
// accepted leader. Caller holds m.mu.
func (m *Master) acceptLeaderLocked(epoch uint64, from simnet.NodeID) bool {
	if epoch > m.epoch {
		if m.role == rolePrimary {
			m.ctr.fencedRejects.Inc()
			m.stepDownLocked(epoch, from)
		}
		return true
	}
	if epoch == m.epoch && m.role != rolePrimary && (m.leader == from || m.leader < 0) {
		return true
	}
	m.ctr.fencedRejects.Inc()
	return false
}

// electionLoop runs on every replica with peers configured. A standby
// that stops hearing replication traffic for HeartbeatMisses intervals
// starts a candidacy: it defers to any reachable earlier peer, waits out
// the primary lease on virtual time (advancing the virtual clock by
// pinging the cluster's memory servers — which doubles as a reachability
// check), and then assumes the primaryship at a bumped epoch.
func (m *Master) electionLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-ticker.C:
		}
		m.mu.Lock()
		if m.role != roleStandby {
			m.mu.Unlock()
			continue
		}
		silentFor := time.Since(m.lastPrimaryWall)
		leaseStartV := m.lastPrimaryV
		epoch := m.epoch
		m.mu.Unlock()
		if silentFor < time.Duration(m.cfg.HeartbeatMisses)*m.cfg.HeartbeatInterval {
			continue
		}
		if m.deferToEarlierPeer() {
			continue
		}
		if !m.waitOutLease(leaseStartV, epoch) {
			continue
		}
		m.promote(epoch)
	}
}

// deferToEarlierPeer probes every configured peer ordered before this node
// and yields the candidacy when one answers: the earliest live replica
// wins, so two standbys cannot promote concurrently.
func (m *Master) deferToEarlierPeer() bool {
	m.mu.Lock()
	deadLeader := m.leader
	m.mu.Unlock()
	for _, p := range m.cfg.Peers {
		if p == m.cfg.Node {
			return false
		}
		if p == deadLeader {
			// The silent primary itself does not earn deference — that it
			// stopped streaming is the whole reason we are here. If it is
			// actually alive but partitioned from us, epoch fencing sorts
			// the collision out after the heal.
			continue
		}
		if _, err := m.probeStatus(p); err == nil {
			return true
		}
	}
	return false
}

// probeStatus asks one peer for its MtMasterStatus over a throwaway
// connection.
func (m *Master) probeStatus(peer simnet.NodeID) (proto.MasterStatus, error) {
	ctx, cancel := context.WithTimeout(m.ctx, m.cfg.HeartbeatInterval)
	defer cancel()
	conn, err := rpc.Dial(ctx, m.dev, peer, proto.MasterService, nil, m.cfg.RPC)
	if err != nil {
		return proto.MasterStatus{}, err
	}
	defer conn.Close()
	payload, _, err := conn.Call(ctx, proto.MtMasterStatus, nil)
	if err != nil {
		return proto.MasterStatus{}, err
	}
	d := rpc.NewDecoder(payload)
	st := proto.DecodeMasterStatus(d)
	return st, d.Err()
}

// waitOutLease blocks the candidacy until the old primary's lease has
// expired on *virtual* time. Virtual time only advances through modeled
// transfers, so the candidate generates them: MtPing round trips to the
// cluster's memory servers, which double as confirmation the candidate
// can actually reach the data plane it is about to coordinate. Returns
// false when the candidacy aborted (a primary resurfaced, or shutdown).
// A negative LeaseTerm skips the wait (unit-test harnesses whose fake
// servers speak no MtPing); zero registered servers means no client can
// hold a layout lease either, so promotion is immediate.
func (m *Master) waitOutLease(leaseStartV simnet.VTime, epoch uint64) bool {
	if m.cfg.LeaseTerm < 0 {
		return true
	}
	target := leaseStartV.Add(m.cfg.LeaseTerm)
	for {
		if m.ctx.Err() != nil {
			return false
		}
		m.mu.Lock()
		aborted := m.role != roleStandby || m.epoch != epoch || m.lastPrimaryV != leaseStartV
		var alive []simnet.NodeID
		for _, s := range m.st.servers {
			if s.alive {
				alive = append(alive, s.node)
			}
		}
		m.mu.Unlock()
		if aborted {
			return false
		}
		if m.vnow() >= target {
			return true
		}
		if len(alive) == 0 {
			return true
		}
		advanced := false
		for _, node := range alive {
			if m.pingServer(node) == nil {
				advanced = true
			}
			if m.vnow() >= target {
				return true
			}
		}
		if !advanced {
			// Every ping failed: we may be the partitioned one. Do not
			// promote blind; retry after a beat.
			m.sleepBeat()
			continue
		}
		// The data plane answered, so this candidate is not the isolated
		// party — now it simply sits out the remainder of the lease. The
		// wait is pure time: lift the virtual frontier to the expiry in one
		// step, exactly as a transfer of equal duration would, so every
		// layout lease the dead primary could have granted is expired by
		// the time we take over.
		m.dev.Network().Fabric().WaitUntil(target)
	}
}

// pingServer issues one MtPing round trip on the memory server's control
// endpoint (the same cached connections the repair plane uses).
func (m *Master) pingServer(node simnet.NodeID) error {
	_, err := m.ctrlCall(node, m.cfg.HeartbeatInterval, proto.MtPing, nil)
	return err
}

// promote assumes the primaryship at a bumped epoch. The replicated
// server liveness is preserved (a server the old primary declared dead
// stays dead, so provisional dirtiness and its absolution survive the
// failover), but the ephemeral primary state starts afresh: every server
// gets a new heartbeat grace (see beat) so the monitor does not sweep them
// before they re-home to us.
func (m *Master) promote(oldEpoch uint64) {
	startV := m.vnow()
	m.mu.Lock()
	if m.role != roleStandby || m.epoch != oldEpoch {
		m.mu.Unlock()
		return
	}
	m.epoch++
	m.role = rolePrimary
	m.leader = m.cfg.Node
	m.beats = make(map[simnet.NodeID]*serverBeat)
	m.underRepair = make(map[repairKey]bool)
	m.rescheduleStalledLocked()
	m.ctr.failovers.Inc()
	m.setRoleGaugesLocked()
	m.startPrimaryLocked()
	m.mu.Unlock()

	// The failover is rare and always significant: pin its span into the
	// flight recorder so post-mortems see exactly when the takeover ran.
	tracer := m.tel.Tracer()
	span := telemetry.Span{
		Trace:  tracer.ProvisionalTrace(),
		ID:     tracer.NewSpan(),
		Name:   "master.failover",
		StartV: startV,
		EndV:   m.vnow(),
	}
	tracer.Record(span)
	tracer.Pin([]telemetry.Span{span})
}
