// Package master implements RStore's coordinator.
//
// The master owns all control-plane state: the registry of memory servers
// and their donated arenas, the hierarchical region namespace, the striped
// extent allocation for every region, and liveness tracking via
// heartbeats. It never touches the data path — after a client maps a
// region, reads and writes go straight to the memory servers' NICs. This
// is the paper's separation philosophy applied to the distributed setting.
package master

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"rstore/internal/health"
	"rstore/internal/proto"
	"rstore/internal/rdma"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// Master-level errors, surfaced to clients through RPC remote errors with
// these exact prefixes (matched by string on the client side of the wire).
var (
	ErrRegionExists   = errors.New("master: region already exists")
	ErrRegionNotFound = errors.New("master: region not found")
	ErrRegionMapped   = errors.New("master: region still mapped")
	ErrNoServers      = errors.New("master: no alive memory servers")
	ErrInsufficient   = errors.New("master: insufficient cluster memory")
)

// Config tunes the master.
type Config struct {
	// Node is the fabric node the master runs on.
	Node simnet.NodeID
	// HeartbeatInterval is how often servers are expected to beat and how
	// often liveness is evaluated. Default 100ms.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many missed intervals mark a server dead.
	// Default 3.
	HeartbeatMisses int
	// DefaultStripeUnit is used when an allocation does not specify one.
	// Default 1 MiB.
	DefaultStripeUnit uint64
	// RepairConcurrency is how many repair tasks run at once. Default 2.
	RepairConcurrency int
	// RepairChunk is the per-read transfer size of repair pulls. Default
	// 256 KiB.
	RepairChunk uint64
	// RepairRateBytesPerSec caps each repair pull's bandwidth on virtual
	// time. Default 1 GiB/s.
	RepairRateBytesPerSec uint64
	// RepairRetryDelay is how long a failed repair task waits before
	// retrying. Default 5x HeartbeatInterval.
	RepairRetryDelay time.Duration
	// RepairPullHook, when set, runs immediately before each repair pull
	// RPC with the source extent about to be read. It is a fault-injection
	// point: chaos tests use it to kill the repair source mid-transfer at a
	// deterministic moment. Nil in production.
	RepairPullHook func(src proto.Extent)
	// Peers is the full master replication group (this node included), in
	// election-priority order: on primary silence the earliest live peer
	// wins the candidacy. Empty means an unreplicated single master — no
	// log streaming, no elections, no fencing overhead.
	Peers []simnet.NodeID
	// LeaseTerm bounds how long clients may serve from a cached region
	// layout, on virtual time; a promoted standby waits this long past the
	// old primary's last observed activity before taking writes, so no
	// lease issued by the old primary can outlive a conflicting new layout.
	// 0 means the 250ms default; negative disables leases entirely (both
	// the client expiry and the candidate's wait).
	LeaseTerm time.Duration
	// HealthRules is the rule set the health engine evaluates every
	// monitor tick (primary only). Nil means health.DefaultRules().
	HealthRules []health.Rule
	// RPC tunes the control connection buffering.
	RPC rpc.Options
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	if c.DefaultStripeUnit == 0 {
		c.DefaultStripeUnit = 1 << 20
	}
	if c.RepairConcurrency <= 0 {
		c.RepairConcurrency = 2
	}
	if c.RepairChunk == 0 {
		c.RepairChunk = 256 << 10
	}
	if c.RepairRateBytesPerSec == 0 {
		c.RepairRateBytesPerSec = 1 << 30
	}
	if c.RepairRetryDelay <= 0 {
		c.RepairRetryDelay = 5 * c.HeartbeatInterval
	}
	if c.LeaseTerm == 0 {
		c.LeaseTerm = 250 * time.Millisecond
	}
	return c
}

// Master is the RStore coordinator.
type Master struct {
	cfg Config
	dev *rdma.Device
	pd  *rdma.PD
	srv *rpc.Server
	tel *telemetry.Registry
	ctr masterCounters

	mu sync.Mutex
	// st is the replicated metadata. It changes only through commitLocked
	// (primary) and handleReplAppend/handleReplHello (standby), which all
	// run the same state.apply / state.restore; see state.go.
	st state

	// Ephemeral, unreplicated state of the current primary (guarded by mu).
	// beats holds each server's heartbeat recency and piggybacked telemetry,
	// underRepair the copies with a repair transfer in flight. A promotion
	// starts both afresh.
	beats       map[simnet.NodeID]*serverBeat
	underRepair map[repairKey]bool

	// Replication-group state (all guarded by mu). epoch is the master
	// epoch — bumped once per failover, it fences stale primaries. leader
	// is the node this replica believes currently leads (-1 unknown).
	// lastPrimary{Wall,V} track the last evidence of a live primary, on
	// the wall clock (election trigger) and virtual time (lease wait);
	// applySeq is the follower's position in the replicated log.
	role            role
	epoch           uint64
	leader          simnet.NodeID
	lastPrimaryWall time.Time
	lastPrimaryV    simnet.VTime
	applySeq        uint64
	repl            repl
	// peers is the replication group minus this node; empty means nothing
	// replicates from here.
	peers []simnet.NodeID

	// engine is the health rule engine, evaluated after every monitor tick
	// while this replica is primary (see health.go).
	engine *health.Engine

	repair repairQueue
	// ctrl caches the connections to the memory servers' control endpoints
	// (repair pulls, trace pulls, candidacy pings).
	ctrl *rdma.Cache[simnet.NodeID, *rpc.Conn]

	// ctx lives as long as the master: Close cancels it, which stops every
	// loop and bounds every outbound RPC.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// serverBeat is the primary's firsthand view of one memory server.
type serverBeat struct {
	lastBeat time.Time
	// tel is the latest telemetry snapshot the server piggybacked on a
	// heartbeat (nil until one arrives), decoded on receipt and never
	// written again — a new beat swaps the pointer — so MtStats and the
	// health engine read it outside m.mu. A dead server's snapshot freezes
	// at its last beat (the staleness model the health rules are written
	// against).
	tel *telemetry.Snapshot
}

// beat returns node's heartbeat record. A server this primary has not yet
// heard from (it registered with a predecessor) starts with a fresh grace
// period. Caller holds m.mu.
func (m *Master) beat(node simnet.NodeID) *serverBeat {
	b, ok := m.beats[node]
	if !ok {
		b = &serverBeat{lastBeat: time.Now()}
		m.beats[node] = b
	}
	return b
}

// masterCounters are the control-plane telemetry handles.
type masterCounters struct {
	allocs          *telemetry.Counter
	allocFails      *telemetry.Counter
	frees           *telemetry.Counter
	maps            *telemetry.Counter
	remaps          *telemetry.Counter
	heartbeats      *telemetry.Counter
	deadTransitions *telemetry.Counter
	revives         *telemetry.Counter
	statsRequests   *telemetry.Counter
	traceFetches    *telemetry.Counter
	regions         *telemetry.Gauge
	serversAlive    *telemetry.Gauge

	failovers     *telemetry.Counter
	fencedRejects *telemetry.Counter
	replRecords   *telemetry.Counter
	roleGauge     *telemetry.Gauge
	epochGauge    *telemetry.Gauge

	repairsStarted    *telemetry.Counter
	repairsDone       *telemetry.Counter
	repairsFailed     *telemetry.Counter
	repairBytes       *telemetry.Counter
	rehomes           *telemetry.Counter
	placementDegraded *telemetry.Counter
	degradedReports   *telemetry.Counter
	regionsLost       *telemetry.Counter
	repairQueueDepth  *telemetry.Gauge
	repairDuration    *telemetry.Histogram

	healthEvals    *telemetry.Counter
	healthFired    *telemetry.Counter
	healthResolved *telemetry.Counter
	healthRequests *telemetry.Counter
}

// Start creates the master's RPC service on the device and begins serving
// and monitoring heartbeats.
func Start(dev *rdma.Device, cfg Config) (*Master, error) {
	cfg = cfg.withDefaults()
	cfg.Node = dev.Node()
	srv, err := rpc.NewServer(dev, proto.MasterService, nil, cfg.RPC)
	if err != nil {
		return nil, fmt.Errorf("master: %w", err)
	}
	tel := dev.Telemetry()
	m := &Master{
		cfg: cfg,
		dev: dev,
		srv: srv,
		tel: tel,
		ctr: masterCounters{
			allocs:          tel.Counter("master.allocs"),
			allocFails:      tel.Counter("master.alloc_fails"),
			frees:           tel.Counter("master.frees"),
			maps:            tel.Counter("master.maps"),
			remaps:          tel.Counter("master.remaps"),
			heartbeats:      tel.Counter("master.heartbeats"),
			deadTransitions: tel.Counter("master.dead_transitions"),
			revives:         tel.Counter("master.revives"),
			statsRequests:   tel.Counter("master.stats_requests"),
			traceFetches:    tel.Counter("master.trace_fetches"),
			regions:         tel.Gauge("master.regions"),
			serversAlive:    tel.Gauge("master.servers_alive"),

			failovers:     tel.Counter("master.failovers"),
			fencedRejects: tel.Counter("master.fenced_rejects"),
			replRecords:   tel.Counter("master.repl_records"),
			roleGauge:     tel.Gauge("master.role"),
			epochGauge:    tel.Gauge("master.epoch"),

			repairsStarted:    tel.Counter("master.repairs_started"),
			repairsDone:       tel.Counter("master.repairs_done"),
			repairsFailed:     tel.Counter("master.repairs_failed"),
			repairBytes:       tel.Counter("master.repair_bytes"),
			rehomes:           tel.Counter("master.rehomes"),
			placementDegraded: tel.Counter("master.placement_degraded"),
			degradedReports:   tel.Counter("master.degraded_reports"),
			regionsLost:       tel.Counter("master.regions_lost"),
			repairQueueDepth:  tel.Gauge("master.repair_queue_depth"),
			repairDuration:    tel.Histogram("master.repair_duration"),

			healthEvals:    tel.Counter("master.health_evals"),
			healthFired:    tel.Counter("master.health_alerts_fired"),
			healthResolved: tel.Counter("master.health_alerts_resolved"),
			healthRequests: tel.Counter("master.health_requests"),
		},
		st:          newState(),
		beats:       make(map[simnet.NodeID]*serverBeat),
		underRepair: make(map[repairKey]bool),
		ctrl:        rpc.NewConnCache[simnet.NodeID](),
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	for _, p := range cfg.Peers {
		if p != cfg.Node {
			m.peers = append(m.peers, p)
		}
	}
	m.pd = dev.AllocPD()
	srv.Handle(proto.MtRegisterServer, m.handleRegisterServer)
	srv.Handle(proto.MtHeartbeat, m.handleHeartbeat)
	srv.Handle(proto.MtAlloc, m.handleAlloc)
	srv.Handle(proto.MtMap, m.handleMap)
	srv.Handle(proto.MtUnmap, m.handleUnmap)
	srv.Handle(proto.MtFree, m.handleFree)
	srv.Handle(proto.MtClusterInfo, m.handleClusterInfo)
	srv.Handle(proto.MtListRegions, m.handleListRegions)
	srv.Handle(proto.MtRemap, m.handleRemap)
	srv.Handle(proto.MtStats, m.handleStats)
	srv.Handle(proto.MtRegionStatus, m.handleRegionStatus)
	srv.Handle(proto.MtReportDegraded, m.handleReportDegraded)
	srv.Handle(proto.MtTraceFetch, m.handleTraceFetch)
	srv.Handle(proto.MtMasterStatus, m.handleMasterStatus)
	srv.Handle(proto.MtReplHello, m.handleReplHello)
	srv.Handle(proto.MtReplAppend, m.handleReplAppend)
	srv.Handle(proto.MtHealth, m.handleHealth)
	rules := cfg.HealthRules
	if rules == nil {
		rules = health.DefaultRules()
	}
	m.engine = health.NewEngine(rules)
	m.repair.init()
	m.repl.init()

	// The group boots with a known leader: the first configured peer. An
	// unreplicated master (no peers) is its own permanent primary and all
	// of the replication machinery stays dormant.
	m.leader = cfg.Node
	m.role = rolePrimary
	if len(cfg.Peers) > 0 && cfg.Peers[0] != cfg.Node {
		m.role = roleStandby
		m.leader = cfg.Peers[0]
	}
	m.lastPrimaryWall = time.Now()
	m.lastPrimaryV = m.vnow()
	m.setRoleGaugesLocked()
	srv.Serve()

	m.wg.Add(1)
	go m.monitor()
	for i := 0; i < cfg.RepairConcurrency; i++ {
		m.wg.Add(1)
		go m.repairWorker()
	}
	if len(cfg.Peers) > 0 {
		if m.role == rolePrimary {
			m.mu.Lock()
			m.startPrimaryLocked()
			m.mu.Unlock()
		}
		m.wg.Add(1)
		go m.electionLoop()
	}
	return m, nil
}

// Status returns the replica's current role name, master epoch, and the
// node it believes leads the group.
func (m *Master) Status() (role string, epoch uint64, leader simnet.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.role.String(), m.epoch, m.leader
}

// Node returns the fabric node the master serves on.
func (m *Master) Node() simnet.NodeID { return m.cfg.Node }

// Telemetry returns the master node's metric registry.
func (m *Master) Telemetry() *telemetry.Registry { return m.tel }

// Close stops serving and monitoring.
func (m *Master) Close() {
	if m.ctx.Err() != nil {
		return
	}
	m.cancel()
	m.wg.Wait()
	m.ctrl.CloseAll()
	m.srv.Close()
}

// notPrimaryLocked builds the redirect a replica that is not (or no longer)
// the primary answers with. Caller holds m.mu.
func (m *Master) notPrimaryLocked() error {
	hint := m.leader
	if hint == m.cfg.Node {
		hint = -1
	}
	return proto.NotPrimaryError(hint, m.epoch)
}

// asPrimary is the one way into the metadata for everything the primary
// does on request. A standby (or a stepped-down primary) answers with the
// not-primary redirect instead of serving from possibly-stale state; the
// primary runs fn under m.mu and then — with the lock released, so a slow
// follower never stalls the master — waits until the log as it stood when
// fn returned is replicated. That covers the records fn committed and
// equally the ones the sweep or another handler committed a moment
// earlier, which fn may have read: only then does the caller release its
// response, so nothing a client was ever told can be missing from a
// promoted standby. A primary that steps down during the wait redirects
// too, and the client retries against the successor.
func (m *Master) asPrimary(fn func() error) error {
	return m.asPrimaryIf(func() (bool, error) { return true, fn() })
}

// asPrimaryIf is asPrimary for an fn that can tell it committed nothing and
// reveals nothing — the heartbeat handler's plain liveness beat — and then
// answers without the wait (wait=false).
func (m *Master) asPrimaryIf(fn func() (wait bool, err error)) error {
	m.mu.Lock()
	if m.role != rolePrimary {
		defer m.mu.Unlock()
		return m.notPrimaryLocked()
	}
	term := m.repl.term
	wait, err := fn()
	m.mu.Unlock()
	if wait && !m.repl.waitCommitted(term) {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.notPrimaryLocked()
	}
	return err
}

// commitLocked is the only way the primary changes replicated metadata:
// apply each record to the state — the same apply a standby runs — and
// append the ones that took to the log. It stops at the first record the
// state rejects; what was applied before it is logged, so primary and
// standbys still agree. Caller holds m.mu and is the primary.
func (m *Master) commitLocked(recs ...proto.ReplRecord) error {
	for n := range recs {
		if err := m.st.apply(&recs[n]); err != nil {
			m.appendLocked(recs[:n])
			return fmt.Errorf("%w: kind %d, region %q", err, recs[n].Kind, recs[n].Name)
		}
	}
	m.appendLocked(recs)
	m.publishGaugesLocked()
	return nil
}

// publishGaugesLocked refreshes the gauges derived from replicated state.
// Caller holds m.mu.
func (m *Master) publishGaugesLocked() {
	var alive int64
	for _, s := range m.st.servers {
		if s.alive {
			alive++
		}
	}
	m.ctr.serversAlive.Set(alive)
	m.ctr.regions.Set(int64(len(m.st.regionsByName)))
}

// monitor marks servers dead when heartbeats stop arriving.
func (m *Master) monitor() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case now := <-ticker.C:
			// Snapshot the master's own telemetry before taking m.mu: the
			// registry locks are leaves and must stay that way.
			own := m.tel.Snapshot()
			m.mu.Lock()
			// Only the primary renders liveness verdicts: a standby's view
			// of heartbeat recency is secondhand (servers beat at the
			// primary), so it would sweep everything spuriously.
			if m.role != rolePrimary {
				m.mu.Unlock()
				continue
			}
			deadline := now.Add(-time.Duration(m.cfg.HeartbeatMisses) * m.cfg.HeartbeatInterval)
			if err := m.sweepLocked(deadline); err != nil {
				// Every record of the sweep names a server or copy the scan
				// just read from the state that rejected it: a bug, and one
				// that would otherwise repeat silently every tick.
				panic(fmt.Sprintf("master: liveness sweep: %v", err))
			}
			view, servers := m.healthViewLocked(now)
			m.mu.Unlock()
			m.evalHealth(m.healthInput(view, own, servers))
		}
	}
}

// sweepLocked declares dead every alive server whose last beat predates
// deadline, and dirties (provisionally) the copies that touch them. Caller
// holds m.mu and is the primary.
func (m *Master) sweepLocked(deadline time.Time) error {
	var died []simnet.NodeID
	for node, s := range m.st.servers {
		if s.alive && m.beat(node).lastBeat.Before(deadline) {
			died = append(died, node)
		}
	}
	if len(died) == 0 {
		return nil
	}
	sort.Slice(died, func(i, j int) bool { return died[i] < died[j] })
	for _, n := range died {
		if err := m.commitLocked(proto.ReplRecord{Kind: proto.ReplServerDead, Node: n}); err != nil {
			return err
		}
		m.ctr.deadTransitions.Inc()
	}
	return m.dirtyCopiesLocked(died, true)
}

// AliveServers returns the nodes currently considered alive.
func (m *Master) AliveServers() []simnet.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []simnet.NodeID
	for _, id := range m.st.serverNodes() {
		if m.st.servers[id].alive {
			out = append(out, id)
		}
	}
	return out
}

// ServerAlive reports the master's current liveness verdict for a node.
func (m *Master) ServerAlive(node simnet.NodeID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.st.servers[node]
	return ok && s.alive
}

// RegionCount returns how many regions exist.
func (m *Master) RegionCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.st.regionsByName)
}

func (m *Master) handleRegisterServer(_ context.Context, from simnet.NodeID, req *rpc.Decoder) (*rpc.Encoder, error) {
	capacity := req.U64()
	rkey := req.U32()
	if err := req.Err(); err != nil {
		return nil, err
	}
	return &rpc.Encoder{}, m.asPrimary(func() error {
		rec, revived := m.st.registerRecord(from, capacity, rkey)
		if err := m.commitLocked(rec); err != nil {
			return err
		}
		m.beat(from).lastBeat = time.Now()
		if revived {
			// The revived arena is empty: every copy with an extent there lost
			// its bytes, so mark them dirty and repair in place. The loss is
			// confirmed (a re-registration is a new incarnation), never absolved.
			m.ctr.revives.Inc()
			if err := m.dirtyCopiesLocked([]simnet.NodeID{from}, false); err != nil {
				return err
			}
		}
		// Fresh capacity may let the repair plane re-home copies stuck on
		// degraded placement, and retry repairs that failed for space.
		m.rescheduleStalledLocked()
		return nil
	})
}

// registerRecord builds the record for a (re-)registration of node. A dead
// server coming back is a new incarnation: its arena may have lost all
// prior contents, so the record advertises the generation change.
func (st *state) registerRecord(node simnet.NodeID, capacity uint64, rkey uint32) (rec proto.ReplRecord, revived bool) {
	rec = proto.ReplRecord{Kind: proto.ReplServer, Node: node, Capacity: capacity, RKey: rkey}
	if s, ok := st.servers[node]; ok {
		revived = !s.alive
		rec.ServerEpoch = s.epoch
		if revived {
			rec.ServerEpoch++
		}
	}
	return rec, revived
}

func (m *Master) handleHeartbeat(_ context.Context, from simnet.NodeID, req *rpc.Decoder) (*rpc.Encoder, error) {
	// Heartbeats optionally piggyback the server's telemetry snapshot; an
	// empty payload (tests driving the wire directly) is a plain liveness
	// beat, and so is one whose blob does not decode — the server is
	// evidently alive, and its previous snapshot stays in place. Decoding
	// happens here, before m.mu is taken.
	var tel *telemetry.Snapshot
	if req.Remaining() > 0 {
		blob := req.Bytes32()
		if err := req.Err(); err != nil {
			return nil, err
		}
		var s telemetry.Snapshot
		if s.UnmarshalBinary(blob) == nil {
			tel = &s
		}
	}
	m.ctr.heartbeats.Inc()
	// A beat that only refreshes liveness reveals no metadata and answers
	// without the commit-wait: behind a dead standby the streamer has not
	// detached yet (5 intervals) the wait would outlast every server's beat
	// budget (4). Only a beat that revives the server commits, and waits.
	return &rpc.Encoder{}, m.asPrimaryIf(func() (revived bool, err error) {
		s, ok := m.st.servers[from]
		if !ok {
			return false, fmt.Errorf("master: heartbeat from unregistered server %v", from)
		}
		b := m.beat(from)
		b.lastBeat = time.Now()
		if tel != nil {
			b.tel = tel
		}
		if s.alive {
			return false, nil
		}
		// The same incarnation beat again without re-registering: the
		// death verdict was heartbeat starvation and the arena is intact.
		// Lift the provisional dirtiness the sweep applied, and re-queue
		// any repairs that stalled for lack of capacity or a clean source.
		m.ctr.revives.Inc()
		if err := m.commitLocked(proto.ReplRecord{Kind: proto.ReplServerAlive, Node: from}); err != nil {
			return true, err
		}
		if err := m.commitLocked(m.st.absolveRecords(from)...); err != nil {
			return true, err
		}
		m.rescheduleStalledLocked()
		return true, nil
	})
}

// pickServers returns up to width alive servers ordered by free space
// (descending), excluding any in the exclude set.
func (st *state) pickServers(width int, exclude map[simnet.NodeID]bool) []*serverState {
	var alive []*serverState
	for _, s := range st.servers {
		if s.alive && !exclude[s.node] {
			alive = append(alive, s)
		}
	}
	sort.Slice(alive, func(i, j int) bool {
		fi, fj := alive[i].alloc.FreeBytes(), alive[j].alloc.FreeBytes()
		if fi != fj {
			return fi > fj
		}
		return alive[i].node < alive[j].node
	})
	if width < len(alive) {
		alive = alive[:width]
	}
	return alive
}

// allocateCopy places one copy of the region over the chosen servers,
// returning the extents or rolling back on failure. The space it takes is
// a tentative reservation: the planner that called it releases it again
// before committing the record whose apply carves the same extents.
func allocateCopy(servers []*serverState, size, stripe uint64) ([]proto.Extent, error) {
	sizes, err := proto.ExtentSizes(size, stripe, len(servers))
	if err != nil {
		return nil, err
	}
	extents := make([]proto.Extent, 0, len(servers))
	for k, s := range servers {
		off, err := s.alloc.Alloc(sizes[k])
		if err != nil {
			// Roll back what we grabbed so far.
			for j := 0; j < k; j++ {
				_ = servers[j].alloc.Free(extents[j].Addr, extents[j].Len)
			}
			return nil, fmt.Errorf("%w: server %v: %v", ErrInsufficient, s.node, err)
		}
		extents = append(extents, proto.Extent{
			Server: s.node,
			RKey:   s.rkey,
			Addr:   off,
			Len:    sizes[k],
		})
	}
	return extents, nil
}

// allocRecord decides a new region's identity and placement and returns
// the ReplRegion record that creates it. Copies are placed one after the
// other with their space held, so later copies steer around earlier ones;
// everything held is released before returning, success or not.
func (st *state) allocRecord(a proto.AllocRequest) (proto.ReplRecord, error) {
	info := &proto.RegionInfo{
		ID:         st.nextID,
		Name:       a.Name,
		Size:       a.Size,
		StripeUnit: a.StripeUnit,
	}
	defer st.releaseRegion(info)
	primaries := st.pickServers(widthOrAll(a.StripeWidth, len(st.servers)), nil)
	if len(primaries) == 0 {
		return proto.ReplRecord{}, ErrNoServers
	}
	var err error
	if info.Extents, err = allocateCopy(primaries, a.Size, a.StripeUnit); err != nil {
		return proto.ReplRecord{}, err
	}

	// Replicas go on servers disjoint from the primary copy when the
	// cluster is big enough; otherwise placement falls back to any alive
	// server with space.
	used := make(map[simnet.NodeID]bool, len(primaries))
	for _, s := range primaries {
		used[s.node] = true
	}
	degraded := make([]bool, 1+a.Replicas)
	for r := 0; r < a.Replicas; r++ {
		repServers := st.pickServers(len(primaries), used)
		if len(repServers) < len(primaries) {
			// Not enough disjoint servers: fall back to the unrestricted
			// set. The copy still exists but shares nodes with another copy,
			// so it adds no failure domain — record that, surface it in
			// telemetry, and let the repair plane re-home it when capacity
			// returns instead of silently pretending full durability.
			repServers = st.pickServers(len(primaries), nil)
			degraded[1+r] = true
		}
		repExtents, err := allocateCopy(repServers, a.Size, a.StripeUnit)
		if err != nil {
			return proto.ReplRecord{}, err
		}
		for _, s := range repServers {
			used[s.node] = true
		}
		info.Replicas = append(info.Replicas, repExtents)
	}
	return proto.ReplRecord{
		Kind:           proto.ReplRegion,
		Region:         info.ID,
		Name:           info.Name,
		Info:           info,
		Token:          a.Token,
		DegradedCopies: degraded,
	}, nil
}

func (m *Master) handleAlloc(_ context.Context, _ simnet.NodeID, req *rpc.Decoder) (*rpc.Encoder, error) {
	a := proto.DecodeAllocRequest(req)
	if err := req.Err(); err != nil {
		return nil, err
	}
	if a.Name == "" {
		return nil, errors.New("master: empty region name")
	}
	if a.StripeUnit == 0 {
		a.StripeUnit = m.cfg.DefaultStripeUnit
	}
	var e rpc.Encoder
	return &e, m.asPrimary(func() error {
		if rs, ok := m.st.regionsByName[a.Name]; ok {
			if a.Token != 0 && rs.allocToken == a.Token {
				// The same allocation, retried — the client's first attempt
				// committed but its response was lost (e.g. to a failover).
				// Idempotence: hand back the region it already owns.
				proto.EncodeRegionInfo(&e, rs.info)
				return nil
			}
			return fmt.Errorf("%w: %q", ErrRegionExists, a.Name)
		}
		rec, err := m.st.allocRecord(a)
		if err == nil {
			err = m.commitLocked(rec)
		}
		if err != nil {
			m.ctr.allocFails.Inc()
			return err
		}
		for _, deg := range rec.DegradedCopies {
			if deg {
				m.ctr.placementDegraded.Inc()
			}
		}
		m.ctr.allocs.Inc()
		proto.EncodeRegionInfo(&e, rec.Info)
		return nil
	})
}

func widthOrAll(width, all int) int {
	if width <= 0 || width > all {
		return all
	}
	return width
}

func (m *Master) handleMap(_ context.Context, _ simnet.NodeID, req *rpc.Decoder) (*rpc.Encoder, error) {
	name := req.String()
	if err := req.Err(); err != nil {
		return nil, err
	}
	var e rpc.Encoder
	return &e, m.asPrimary(func() error {
		rs, err := m.st.region(name)
		if err != nil {
			return err
		}
		if err := m.commitLocked(proto.ReplRecord{Kind: proto.ReplMapCount, Name: name, Count: rs.mapCount + 1}); err != nil {
			return err
		}
		m.ctr.maps.Inc()
		proto.EncodeRegionInfo(&e, rs.info)
		e.U64(m.leaseNanosLocked())
		return nil
	})
}

// leaseNanosLocked returns the layout lease term stamped on Map/Remap
// responses, in nanoseconds of virtual time (0 = no lease discipline, the
// layout never self-expires). Caller holds m.mu.
func (m *Master) leaseNanosLocked() uint64 {
	if m.cfg.LeaseTerm < 0 || len(m.cfg.Peers) == 0 {
		return 0
	}
	return uint64(m.cfg.LeaseTerm)
}

// handleRemap returns a region's metadata without touching its map count:
// the idempotent refresh a recovering client repeats safely.
func (m *Master) handleRemap(_ context.Context, _ simnet.NodeID, req *rpc.Decoder) (*rpc.Encoder, error) {
	name := req.String()
	if err := req.Err(); err != nil {
		return nil, err
	}
	var e rpc.Encoder
	return &e, m.asPrimary(func() error {
		rs, err := m.st.region(name)
		if err != nil {
			return err
		}
		m.ctr.remaps.Inc()
		proto.EncodeRegionInfo(&e, rs.info)
		e.U64(m.leaseNanosLocked())
		return nil
	})
}

func (m *Master) handleUnmap(_ context.Context, _ simnet.NodeID, req *rpc.Decoder) (*rpc.Encoder, error) {
	name := req.String()
	if err := req.Err(); err != nil {
		return nil, err
	}
	return &rpc.Encoder{}, m.asPrimary(func() error {
		rs, err := m.st.region(name)
		if err != nil {
			return err
		}
		if rs.mapCount > 0 {
			return m.commitLocked(proto.ReplRecord{Kind: proto.ReplMapCount, Name: name, Count: rs.mapCount - 1})
		}
		return nil
	})
}

func (m *Master) handleFree(_ context.Context, _ simnet.NodeID, req *rpc.Decoder) (*rpc.Encoder, error) {
	name := req.String()
	if err := req.Err(); err != nil {
		return nil, err
	}
	return &rpc.Encoder{}, m.asPrimary(func() error {
		rs, err := m.st.region(name)
		if err != nil {
			return err
		}
		if rs.mapCount > 0 {
			return fmt.Errorf("%w: %q has %d mappings", ErrRegionMapped, name, rs.mapCount)
		}
		if err := m.commitLocked(proto.ReplRecord{Kind: proto.ReplRegionFree, Name: name}); err != nil {
			return err
		}
		m.ctr.frees.Inc()
		return nil
	})
}

func (m *Master) handleClusterInfo(_ context.Context, _ simnet.NodeID, _ *rpc.Decoder) (*rpc.Encoder, error) {
	var e rpc.Encoder
	return &e, m.asPrimary(func() error {
		nodes := m.st.serverNodes()
		e.U32(uint32(len(nodes)))
		for _, id := range nodes {
			s := m.st.servers[id]
			info := proto.ServerInfo{
				Node:     s.node,
				Capacity: s.alloc.Capacity(),
				Used:     s.alloc.Used(),
				Alive:    s.alive,
				Epoch:    s.epoch,
			}
			info.Encode(&e)
		}
		return nil
	})
}

// handleStats returns the cluster-wide telemetry view: the master's own
// live snapshot first, then the latest snapshot each registered memory
// server piggybacked on a heartbeat. Only the pointers are collected
// under m.mu; encoding happens after.
func (m *Master) handleStats(_ context.Context, _ simnet.NodeID, _ *rpc.Decoder) (*rpc.Encoder, error) {
	m.ctr.statsRequests.Inc()
	stats := []proto.NodeStats{{Node: m.cfg.Node, Role: "master", Stats: m.tel.Snapshot()}}
	if err := m.asPrimary(func() error {
		for _, id := range m.st.serverNodes() {
			if tel := m.beat(id).tel; tel != nil {
				stats = append(stats, proto.NodeStats{Node: id, Role: "memserver", Stats: *tel})
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var e rpc.Encoder
	e.U32(uint32(len(stats)))
	for i := range stats {
		if err := stats[i].Encode(&e); err != nil {
			return nil, fmt.Errorf("master: marshal stats: %w", err)
		}
	}
	return &e, nil
}

func (m *Master) handleListRegions(_ context.Context, _ simnet.NodeID, _ *rpc.Decoder) (*rpc.Encoder, error) {
	var e rpc.Encoder
	return &e, m.asPrimary(func() error {
		names := m.st.regionNames()
		e.U32(uint32(len(names)))
		for _, n := range names {
			rs := m.st.regionsByName[n]
			e.String(n)
			e.U64(uint64(rs.info.ID))
			e.U64(rs.info.Size)
			e.U32(uint32(rs.mapCount))
		}
		return nil
	})
}
