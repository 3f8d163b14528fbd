// Package memserver implements RStore's memory servers: the nodes that
// donate DRAM to the distributed store.
//
// A memory server's life is deliberately boring — that is the point of the
// paper's design. At startup it registers one large arena with its NIC and
// announces itself (capacity + rkey) to the master; afterwards the server
// CPU only sends heartbeats and services region-notification fan-out. All
// data access happens through one-sided RDMA directly against the arena:
// no goroutine in this package ever touches a byte of client data.
package memserver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rstore/internal/proto"
	"rstore/internal/rdma"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// Config tunes a memory server.
type Config struct {
	// Capacity is the arena size donated to the store.
	Capacity uint64
	// Master is the node the master runs on.
	Master simnet.NodeID
	// Masters, when set, is the full master replication group. The server
	// registers with (and beats at) whichever replica currently answers as
	// primary, following not-primary redirects after a failover. Empty
	// means the single Master above.
	Masters []simnet.NodeID
	// HeartbeatInterval is how often to beat. Default 100ms (should match
	// the master's interval).
	HeartbeatInterval time.Duration
	// RPC tunes the control connection.
	RPC rpc.Options
}

func (c Config) withDefaults() Config {
	if len(c.Masters) == 0 {
		c.Masters = []simnet.NodeID{c.Master}
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	return c
}

// Server is a running memory server.
type Server struct {
	cfg   Config
	dev   *rdma.Device
	pd    *rdma.PD
	arena *rdma.MemoryRegion

	beats        *telemetry.Counter
	reconnects   *telemetry.Counter
	repairPulls  *telemetry.Counter
	repairBytes  *telemetry.Counter
	repairErrors *telemetry.Counter

	dataLis   *rdma.Listener
	notifyLis *rdma.Listener
	ctrlSrv   *rpc.Server
	// masters finds the primary for every beat and registration.
	masters *proto.MasterGroup
	// registered is set once Start's own registration is through: every
	// master dial after it replaces a connection (memserver.reconnects).
	registered bool

	// needAnnounce (owned by the heartbeat goroutine) is armed when a pass
	// found the whole master group unreachable: the fault may have been
	// this machine's own link, and a severed machine must assume the master
	// wrote it off — the next contact re-registers as a new incarnation
	// instead of presenting itself as a survivor.
	needAnnounce bool

	mu       sync.Mutex
	dataQPs  []*rdma.QP
	watchers map[proto.RegionID][]*notifySession

	cancel context.CancelFunc
	stop   chan struct{}
	wg     sync.WaitGroup
}

// Start boots a memory server on the device: registers the arena, opens
// the data and notification services, registers with the master, and
// starts heartbeating.
func Start(ctx context.Context, dev *rdma.Device, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Capacity == 0 {
		return nil, errors.New("memserver: zero capacity")
	}
	pd := dev.AllocPD()
	arena, err := pd.RegisterMemory(make([]byte, cfg.Capacity),
		rdma.AccessLocalWrite|rdma.AccessRemoteRead|rdma.AccessRemoteWrite|rdma.AccessRemoteAtomic)
	if err != nil {
		return nil, fmt.Errorf("memserver: register arena: %w", err)
	}
	dataLis, err := dev.Listen(proto.MemDataService, pd, rdma.ConnOpts{SendDepth: 1024, RecvDepth: 1024})
	if err != nil {
		return nil, fmt.Errorf("memserver: %w", err)
	}
	notifyLis, err := dev.Listen(proto.MemNotifyService, pd, rdma.ConnOpts{SendDepth: 256, RecvDepth: 256})
	if err != nil {
		dataLis.Close()
		return nil, fmt.Errorf("memserver: %w", err)
	}
	ctrlSrv, err := rpc.NewServer(dev, proto.MemCtrlService, pd, cfg.RPC)
	if err != nil {
		dataLis.Close()
		notifyLis.Close()
		return nil, fmt.Errorf("memserver: %w", err)
	}
	tel := dev.Telemetry()
	tel.Gauge("memserver.arena_capacity").Set(int64(cfg.Capacity))
	s := &Server{
		cfg:          cfg,
		dev:          dev,
		pd:           pd,
		arena:        arena,
		beats:        tel.Counter("memserver.heartbeats"),
		reconnects:   tel.Counter("memserver.reconnects"),
		repairPulls:  tel.Counter("memserver.repair_pulls"),
		repairBytes:  tel.Counter("memserver.repair_pull_bytes"),
		repairErrors: tel.Counter("memserver.repair_pull_errors"),
		dataLis:      dataLis,
		notifyLis:    notifyLis,
		ctrlSrv:      ctrlSrv,
		watchers:     make(map[proto.RegionID][]*notifySession),
		stop:         make(chan struct{}),
	}
	s.masters = proto.NewMasterGroup(cfg.Masters, s.dialMaster)
	if _, err := s.masters.Do(ctx, s.register); err != nil {
		s.teardown()
		return nil, fmt.Errorf("memserver: register with master: %w", err)
	}
	s.registered = true
	ctrlSrv.Handle(proto.MtRepairPull, s.handleRepairPull)
	ctrlSrv.Handle(proto.MtTracePull, s.handleTracePull)
	ctrlSrv.Handle(proto.MtPing, s.handlePing)
	ctrlSrv.Serve()

	loopCtx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.wg.Add(3)
	go s.acceptData(loopCtx)
	go s.acceptNotify(loopCtx)
	go s.heartbeat(loopCtx)
	return s, nil
}

// Node returns the server's fabric node.
func (s *Server) Node() simnet.NodeID { return s.dev.Node() }

// Telemetry returns the server node's metric registry.
func (s *Server) Telemetry() *telemetry.Registry { return s.dev.Telemetry() }

// Arena exposes the donated memory region (tests verify one-sided writes
// land in it).
func (s *Server) Arena() *rdma.MemoryRegion { return s.arena }

// Close stops the server.
func (s *Server) Close() {
	select {
	case <-s.stop:
		return
	default:
	}
	close(s.stop)
	if s.cancel != nil {
		s.cancel()
	}
	s.wg.Wait()
	s.teardown()
}

func (s *Server) teardown() {
	s.mu.Lock()
	qps := s.dataQPs
	s.dataQPs = nil
	var sessions []*notifySession
	for _, ws := range s.watchers {
		sessions = append(sessions, ws...)
	}
	s.watchers = make(map[proto.RegionID][]*notifySession)
	s.mu.Unlock()
	for _, qp := range qps {
		qp.Close()
	}
	for _, ns := range sessions {
		ns.qp.Close()
	}
	s.masters.Close()
	s.dataLis.Close()
	s.notifyLis.Close()
	s.ctrlSrv.Close()
}

// acceptData parks accepted one-sided QPs. Nothing ever polls them: the
// client's READ/WRITE/ATOMIC traffic is served entirely by the (simulated)
// NIC against the arena.
func (s *Server) acceptData(ctx context.Context) {
	defer s.wg.Done()
	for {
		qp, err := s.dataLis.Accept(ctx)
		if err != nil {
			return
		}
		s.mu.Lock()
		s.dataQPs = append(s.dataQPs, qp)
		s.mu.Unlock()
	}
}

func (s *Server) heartbeat(ctx context.Context) {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.beats.Inc()
			s.beat(ctx)
		}
	}
}

// beat is one heartbeat tick: one pass over the master group
// (proto.MasterGroup.Do), bounded by a deadline so a half-partitioned
// master cannot stall the loop past a few beat intervals; the next tick
// retries whatever it leaves undone. As long as some replica stays
// reachable the arena is demonstrably intact, and the server presents
// itself with a plain heartbeat — at a freshly promoted primary that lifts
// any provisional death verdict of the failover sweep, with no epoch bump
// and no repair. It registers in full when the primary does not know it, or
// when needAnnounce marks this incarnation as suspect; only a pass that
// found every replica unreachable arms that flag — one that merely ran out
// of its deadline proves nothing and leaves it as it was.
func (s *Server) beat(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, 4*s.cfg.HeartbeatInterval)
	defer cancel()
	call := s.sendBeat
	if s.needAnnounce {
		call = s.register
	}
	out, err := s.masters.Do(ctx, call)
	if out == proto.Served && err != nil && !s.needAnnounce {
		// The primary answered but refused the beat — it does not know this
		// server. Announce in full, on what is now the current connection.
		out, err = s.masters.Do(ctx, s.register)
	}
	switch {
	case out == proto.Served && err == nil:
		s.needAnnounce = false
	case out == proto.Unreachable:
		s.needAnnounce = true
	}
}

// dialMaster is the master locator's dial hook.
func (s *Server) dialMaster(ctx context.Context, node simnet.NodeID) (*rpc.Conn, error) {
	if s.registered {
		s.reconnects.Inc()
	}
	return rpc.Dial(ctx, s.dev, node, proto.MasterService, s.pd, s.cfg.RPC)
}

// sendBeat is the plain heartbeat: liveness plus the telemetry snapshot.
func (s *Server) sendBeat(ctx context.Context, conn *rpc.Conn) error {
	_, _, err := conn.Call(ctx, proto.MtHeartbeat, s.beatPayload())
	return err
}

// register announces the arena (capacity + rkey) as a new incarnation.
func (s *Server) register(ctx context.Context, conn *rpc.Conn) error {
	var e rpc.Encoder
	e.U64(s.cfg.Capacity)
	e.U32(s.arena.RKey())
	_, _, err := conn.Call(ctx, proto.MtRegisterServer, e.Bytes())
	return err
}

// beatPayload marshals the node's telemetry snapshot — lifetime totals
// and sealed windows in one blob — for heartbeat piggybacking: the stats
// plane's transport and the health engine's input feed. Snapshotting also
// ticks the window sampler, so each beat seals the buckets virtual time
// has completed since the last one. A marshal failure degrades to a plain
// liveness beat.
func (s *Server) beatPayload() []byte {
	blob, err := s.dev.Telemetry().Snapshot().MarshalBinary()
	if err != nil {
		return nil
	}
	var e rpc.Encoder
	e.Bytes32(blob)
	return e.Bytes()
}

// handlePing answers the master candidacy probe: a no-op round trip whose
// only job is to prove reachability and move the virtual clock.
func (s *Server) handlePing(_ context.Context, _ simnet.NodeID, _ *rpc.Decoder) (*rpc.Encoder, error) {
	return &rpc.Encoder{}, nil
}
