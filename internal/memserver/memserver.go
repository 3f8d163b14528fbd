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
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	return c
}

// masters returns the configured master group (the single Master when no
// group was given).
func (c Config) masters() []simnet.NodeID {
	if len(c.Masters) > 0 {
		return c.Masters
	}
	return []simnet.NodeID{c.Master}
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
	masterCon *rpc.Conn

	// needAnnounce (owned by the heartbeat goroutine) is armed when the
	// whole master group went unreachable: the fault may have been this
	// machine's own link, and a severed machine must assume the master
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
	conn, err := dialAndRegister(ctx, dev, pd, cfg, arena.RKey())
	if err != nil {
		dataLis.Close()
		notifyLis.Close()
		ctrlSrv.Close()
		return nil, fmt.Errorf("memserver: register with master: %w", err)
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
		masterCon:    conn,
		watchers:     make(map[proto.RegionID][]*notifySession),
		stop:         make(chan struct{}),
	}
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
	conn := s.masterCon
	s.mu.Unlock()
	for _, qp := range qps {
		qp.Close()
	}
	for _, ns := range sessions {
		ns.qp.Close()
	}
	conn.Close()
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
			s.mu.Lock()
			conn := s.masterCon
			s.mu.Unlock()
			s.beats.Inc()
			beatCtx, cancel := context.WithTimeout(ctx, 4*s.cfg.HeartbeatInterval)
			_, _, err := conn.Call(beatCtx, proto.MtHeartbeat, s.beatPayload())
			cancel()
			if err != nil {
				// A failed beat (partition, our link flapping) kills the
				// control QP permanently; re-dial and re-announce so the
				// master revives us once connectivity returns.
				s.reconnect(ctx)
			}
		}
	}
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

// reconnect re-establishes the master control connection, re-homing to
// whichever replica currently answers as primary. Failures are ignored;
// the next heartbeat tick retries. Every step is bounded by a deadline so
// a half-partitioned master cannot stall the heartbeat loop past a few
// beat intervals.
func (s *Server) reconnect(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, 4*s.cfg.HeartbeatInterval)
	defer cancel()
	s.reconnects.Inc()
	conn, reached, err := s.rehome(ctx)
	if err != nil {
		if !reached {
			s.needAnnounce = true
		}
		return
	}
	s.needAnnounce = false
	s.mu.Lock()
	old := s.masterCon
	s.masterCon = conn
	s.mu.Unlock()
	old.Close()
}

// rehome locates the master group's current primary and re-establishes
// the control connection. As long as some replica stayed reachable, the
// fault was on the master's side, the arena is demonstrably intact, and
// the server presents itself with a plain heartbeat: the same incarnation
// re-homing — at a freshly promoted primary this lifts any provisional
// death verdict the failover sweep applied, with no epoch bump and no
// repair. It falls back to a full registration when the primary does not
// know the server (a standby promoted before the registration replicated)
// or when needAnnounce marks this incarnation as suspect. The second
// return reports whether any replica answered at all.
func (s *Server) rehome(ctx context.Context) (*rpc.Conn, bool, error) {
	var lastErr error
	reached := false
	tried := make(map[simnet.NodeID]bool)
	candidates := append([]simnet.NodeID(nil), s.cfg.masters()...)
	for i := 0; i < len(candidates); i++ {
		node := candidates[i]
		if tried[node] {
			continue
		}
		tried[node] = true
		conn, err := rpc.Dial(ctx, s.dev, node, proto.MasterService, s.pd, s.cfg.RPC)
		if err != nil {
			lastErr = err
			continue
		}
		reached = true
		register := s.needAnnounce
		if !register {
			_, _, err = conn.Call(ctx, proto.MtHeartbeat, s.beatPayload())
			if err == nil {
				return conn, true, nil
			}
			lastErr = err
			var re *rpc.RemoteError
			if !errors.As(err, &re) {
				conn.Close()
				continue
			}
			if p, _, ok := proto.IsNotPrimaryMsg(re.Msg); ok {
				conn.Close()
				if p >= 0 {
					candidates = append(candidates, p)
				}
				continue
			}
			// The primary answered but refused the beat — it does not know
			// this server. Announce in full on the same connection.
			register = true
		}
		if register {
			var e rpc.Encoder
			e.U64(s.cfg.Capacity)
			e.U32(s.arena.RKey())
			if _, _, err := conn.Call(ctx, proto.MtRegisterServer, e.Bytes()); err != nil {
				conn.Close()
				lastErr = err
				var re *rpc.RemoteError
				if errors.As(err, &re) {
					if p, _, ok := proto.IsNotPrimaryMsg(re.Msg); ok && p >= 0 {
						candidates = append(candidates, p)
					}
				}
				continue
			}
			return conn, true, nil
		}
	}
	if lastErr == nil {
		lastErr = errors.New("memserver: no masters configured")
	}
	return nil, reached, lastErr
}

// dialAndRegister locates the master group's current primary, announces
// the arena (capacity + rkey), and returns the control connection. It
// tries each configured replica in order, chasing not-primary redirect
// hints it has not already tried.
func dialAndRegister(ctx context.Context, dev *rdma.Device, pd *rdma.PD, cfg Config, rkey uint32) (*rpc.Conn, error) {
	var lastErr error
	tried := make(map[simnet.NodeID]bool)
	candidates := append([]simnet.NodeID(nil), cfg.masters()...)
	for i := 0; i < len(candidates); i++ {
		node := candidates[i]
		if tried[node] {
			continue
		}
		tried[node] = true
		conn, err := rpc.Dial(ctx, dev, node, proto.MasterService, pd, cfg.RPC)
		if err != nil {
			lastErr = err
			continue
		}
		var e rpc.Encoder
		e.U64(cfg.Capacity)
		e.U32(rkey)
		_, _, err = conn.Call(ctx, proto.MtRegisterServer, e.Bytes())
		if err == nil {
			return conn, nil
		}
		conn.Close()
		lastErr = err
		var re *rpc.RemoteError
		if errors.As(err, &re) {
			if p, _, ok := proto.IsNotPrimaryMsg(re.Msg); ok && p >= 0 {
				// Chase the redirect even if it points outside the
				// configured list (it never should, but the hint is
				// authoritative).
				candidates = append(candidates, p)
			}
		}
	}
	if lastErr == nil {
		lastErr = errors.New("memserver: no masters configured")
	}
	return nil, lastErr
}

// handlePing answers the master candidacy probe: a no-op round trip whose
// only job is to prove reachability and move the virtual clock.
func (s *Server) handlePing(_ context.Context, _ simnet.NodeID, _ *rpc.Decoder) (*rpc.Encoder, error) {
	return &rpc.Encoder{}, nil
}
