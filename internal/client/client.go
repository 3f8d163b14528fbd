// Package client implements the RStore client library: the memory-like API
// the paper exposes to applications.
//
// The API follows the paper's separation philosophy:
//
//   - Control path (slow, amortized): Alloc reserves a named, striped
//     region of cluster DRAM at the master; Map fetches its metadata and
//     lazily establishes one-sided queue pairs to each memory server the
//     region touches; AllocBuf registers local memory with the NIC.
//   - Data path (fast, constant): ReadAt/WriteAt/FetchAdd translate region
//     offsets to server fragments with a local table lookup and issue
//     one-sided RDMA operations. No master, no server CPU, no metadata
//     traffic.
//
// All control-path work is metered in ControlStats (modeled virtual time),
// which the benchmark harness uses for the paper's control-path figures.
package client

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rstore/internal/proto"
	"rstore/internal/rdma"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// Client-level errors.
var (
	ErrClosed       = errors.New("client: closed")
	ErrRegionClosed = errors.New("client: region unmapped")
	ErrIOFailed     = errors.New("client: io failed")

	// ErrRegionExists / ErrRegionNotFound mirror the master's errors across
	// the RPC boundary (matched by message prefix).
	ErrRegionExists   = errors.New("client: region already exists")
	ErrRegionNotFound = errors.New("client: region not found")

	// ErrRegionLost means a region's memory server is gone for good: the
	// master has declared it dead, so retrying cannot help. Holders of the
	// region must re-Alloc (contents are lost — RStore is a store, not a
	// durable database).
	ErrRegionLost = errors.New("client: region lost (server dead)")

	// ErrStaleGeneration means a one-sided access failed against a layout
	// the repair plane has since replaced. The client remaps transparently
	// and retries once; this error surfaces only when the retry against
	// the fresh layout also failed.
	ErrStaleGeneration = errors.New("client: stale region generation")

	// ErrMasterUnavailable means no master replica could be reached — or
	// none would serve as primary — within the client's retry budget.
	// One-sided data-path I/O keeps working off leased layouts during a
	// master outage; only control-plane calls fail with this sentinel.
	ErrMasterUnavailable = errors.New("client: master unavailable")
)

// Config tunes a client.
type Config struct {
	// Master is the node the master runs on.
	Master simnet.NodeID
	// Masters, when set, is the full master replication group. The client
	// homes on whichever replica answers as primary, chasing not-primary
	// redirects after a failover. Empty means the single Master above.
	Masters []simnet.NodeID
	// RPC tunes the master control connection.
	RPC rpc.Options
	// StagingChunk is the size of each staging buffer backing the []byte
	// convenience Read/Write path. Default 1 MiB.
	StagingChunk int
	// StagingCount is how many staging chunks to register. Default 4.
	StagingCount int
	// QPDepth is the send-queue depth per server connection. Default 512.
	QPDepth int
	// Retry governs control-plane retries (master RPCs and re-dials).
	// Zero-valued fields take DefaultRetryPolicy values.
	Retry RetryPolicy
}

func (c Config) withDefaults() Config {
	if len(c.Masters) == 0 {
		c.Masters = []simnet.NodeID{c.Master}
	}
	if c.StagingChunk <= 0 {
		c.StagingChunk = 1 << 20
	}
	if c.StagingCount <= 0 {
		c.StagingCount = 4
	}
	if c.QPDepth <= 0 {
		c.QPDepth = 512
	}
	return c
}

// ControlStats meters the modeled cost of control-path operations. All
// durations are virtual (cost-model) time.
type ControlStats struct {
	RPCTime      time.Duration
	ConnectTime  time.Duration
	RegisterTime time.Duration
	RPCs         int
	Connects     int
	Registers    int
}

// Total returns the summed modeled control time.
func (s ControlStats) Total() time.Duration {
	return s.RPCTime + s.ConnectTime + s.RegisterTime
}

// Sub returns the difference s - o, for measuring a single operation.
func (s ControlStats) Sub(o ControlStats) ControlStats {
	return ControlStats{
		RPCTime:      s.RPCTime - o.RPCTime,
		ConnectTime:  s.ConnectTime - o.ConnectTime,
		RegisterTime: s.RegisterTime - o.RegisterTime,
		RPCs:         s.RPCs - o.RPCs,
		Connects:     s.Connects - o.Connects,
		Registers:    s.Registers - o.Registers,
	}
}

// clientCounters holds the client's telemetry handles, resolved once at
// Connect so the data path never touches the registry's lock.
type clientCounters struct {
	// ops and lat are the completed-operation counter and modeled-latency
	// histogram of each operation kind, named by kindNames.
	ops        [len(kindNames)]*telemetry.Counter
	lat        [len(kindNames)]*telemetry.Histogram
	ioFailures *telemetry.Counter // data-path operations that returned an error
	remaps     *telemetry.Counter // Remap recovery attempts
	retries    *telemetry.Counter // control-plane retry attempts (after backoff)
	redials    *telemetry.Counter // master control-connection re-dials

	degradedWrites *telemetry.Counter // writes that succeeded on a strict subset of copies
	readFailovers  *telemetry.Counter // reads served by a replica after the primary failed
	staleRemaps    *telemetry.Counter // remaps that discovered a bumped generation
	slowOps        *telemetry.Counter // ops the flight recorder promoted (slow or failed)
}

// Client is an RStore client endpoint on one fabric node.
type Client struct {
	cfg    Config
	dev    *rdma.Device
	pd     *rdma.PD
	retry  *retrier
	ctr    clientCounters
	tracer *telemetry.Tracer

	// vnow is the client's virtual-time cursor: the modeled completion of
	// its most recent data-path operation. Operations are timestamped from
	// it, so a synchronous caller's ops chain and measured latencies are
	// per-operation service times.
	vnow atomicVTime

	// allocSeq numbers Alloc idempotency tokens (unique per client).
	allocSeq atomic.Uint64

	// masters finds the primary for every control call; conns and notify
	// cache the one-sided and the notification connection to each memory
	// server. All three dial lazily and close themselves with the client.
	masters *proto.MasterGroup
	conns   *rdma.Cache[simnet.NodeID, *serverConn]
	notify  *rdma.Cache[simnet.NodeID, *notifyConn]
	// connected is set once Connect's own dial is through: every master
	// dial after it replaces a connection (client.redials).
	connected bool

	mu      sync.Mutex
	servers map[simnet.NodeID]serverSeen // last master verdict per server
	regions map[proto.RegionID][]*Region // mapped handles, for invalidation push
	ctrl    ControlStats
	staging chan *Buf
}

// registerRegion indexes a mapped handle so invalidation pushes can find it.
func (c *Client) registerRegion(r *Region) {
	id := r.Info().ID
	c.mu.Lock()
	c.regions[id] = append(c.regions[id], r)
	c.mu.Unlock()
}

// unregisterRegion drops an unmapped handle from the invalidation index.
func (c *Client) unregisterRegion(r *Region) {
	id := r.Info().ID
	c.mu.Lock()
	rs := c.regions[id]
	for i, cur := range rs {
		if cur == r {
			c.regions[id] = append(rs[:i], rs[i+1:]...)
			break
		}
	}
	if len(c.regions[id]) == 0 {
		delete(c.regions, id)
	}
	c.mu.Unlock()
}

// invalidateRegion marks every mapped handle of the region stale; the next
// data-path operation remaps before issuing. Called from notify receive
// loops when the repair plane pushes a layout change.
func (c *Client) invalidateRegion(id proto.RegionID) {
	c.mu.Lock()
	rs := append([]*Region(nil), c.regions[id]...)
	c.mu.Unlock()
	for _, r := range rs {
		r.stale.Store(true)
	}
}

// VNow returns the client's virtual-time cursor.
func (c *Client) VNow() simnet.VTime { return c.vnow.load() }

// advanceVNow lifts the cursor to at least v.
func (c *Client) advanceVNow(v simnet.VTime) { c.vnow.max(v) }

// Connect opens a client on the device and dials the master.
func Connect(ctx context.Context, dev *rdma.Device, cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	pd := dev.AllocPD()
	tel := dev.Telemetry()
	c := &Client{
		cfg:   cfg,
		dev:   dev,
		pd:    pd,
		retry: newRetrier(cfg.Retry),
		ctr: clientCounters{
			ioFailures: tel.Counter("client.io_failures"),
			remaps:     tel.Counter("client.remaps"),
			retries:    tel.Counter("client.retries"),
			redials:    tel.Counter("client.redials"),

			degradedWrites: tel.Counter("client.degraded_writes"),
			readFailovers:  tel.Counter("client.read_failovers"),
			staleRemaps:    tel.Counter("client.stale_generation_remaps"),
			slowOps:        tel.Counter("client.slow_ops"),
		},
		tracer:  tel.Tracer(),
		servers: make(map[simnet.NodeID]serverSeen),
		regions: make(map[proto.RegionID][]*Region),
		staging: make(chan *Buf, cfg.StagingCount),
	}
	for k, n := range kindNames {
		c.ctr.ops[k], c.ctr.lat[k] = tel.Counter(n.counter), tel.Histogram(n.latency)
	}
	c.retry.onRetry = c.ctr.retries.Inc
	c.masters = proto.NewMasterGroup(cfg.Masters, c.dialMaster)
	c.conns = rdma.NewCache(c.serverCurrent, (*serverConn).close)
	// A notify connection carries its subscribers' channels, so it is kept
	// until the client closes rather than replaced when its QP fails.
	c.notify = rdma.NewCache(func(simnet.NodeID, *notifyConn) bool { return true }, (*notifyConn).close)
	// Any replica that accepts the dial will do: a standby redirects the
	// first call, and the locator follows the hint.
	if _, err := c.masters.Do(ctx, func(context.Context, *rpc.Conn) error { return nil }); err != nil {
		return nil, fmt.Errorf("client: dial master: %w: %v", ErrMasterUnavailable, err)
	}
	c.connected = true
	// Join the fabric's virtual timeline at connect time.
	c.advanceVNow(dev.Network().Fabric().VNow())
	for i := 0; i < cfg.StagingCount; i++ {
		b, err := c.AllocBuf(cfg.StagingChunk)
		if err != nil {
			c.masters.Close()
			return nil, fmt.Errorf("client: staging: %w", err)
		}
		c.staging <- b
	}
	return c, nil
}

// Device returns the client's device.
func (c *Client) Device() *rdma.Device { return c.dev }

// Telemetry returns the node's metric registry (shared with every layer
// running on the client's device).
func (c *Client) Telemetry() *telemetry.Registry { return c.dev.Telemetry() }

// opTrace is one data-path operation's tracing decision: its trace, the
// envelope span covering the whole op, and whether the trace is
// provisional (minted only so the flight recorder can promote the op if
// it turns out slow — buffered, never recorded unless promoted).
type opTrace struct {
	id          telemetry.TraceID
	span        telemetry.SpanID // envelope span (parent of io.* fragments)
	parent      telemetry.SpanID // caller's span from ctx, when nested
	provisional bool
}

// startOp makes the tracing decision for a data-path operation starting
// now: a ctx-propagated trace wins, then head sampling, then — when the
// flight recorder is armed — a provisional trace that costs the tracer
// nothing unless the op exceeds the slow threshold or fails. Costs two
// atomic loads when tracing and the recorder are both off.
func (c *Client) startOp(ctx context.Context) opTrace {
	if id := telemetry.TraceFrom(ctx); id != 0 {
		return opTrace{id: id, span: c.tracer.NewSpan(), parent: telemetry.SpanFrom(ctx)}
	}
	if id, ok := c.tracer.NewTrace(); ok {
		return opTrace{id: id, span: c.tracer.NewSpan()}
	}
	if c.tracer.Armed() {
		return opTrace{id: c.tracer.ProvisionalTrace(), span: c.tracer.NewSpan(), provisional: true}
	}
	return opTrace{}
}

// opKind tags data-path operations for telemetry.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opAtomic
)

// opNames are an operation kind's spellings: the verb in error messages,
// the envelope span, the per-fragment span, and its outcome metrics.
type opNames struct{ verb, span, io, counter, latency string }

var kindNames = [...]opNames{
	opRead:   {"read", "client.read", "io.read", "client.reads", "client.read_latency"},
	opWrite:  {"write", "client.write", "io.write", "client.writes", "client.write_latency"},
	opAtomic: {"atomic", "client.atomic", "io.atomic", "client.atomics", "client.atomic_latency"},
}

func (k opKind) names() *opNames { return &kindNames[k] }

// recordOp folds one completed data-path operation into the client's
// telemetry: an outcome counter, the per-kind latency histogram, and — when
// the operation is traced — an envelope span covering its virtual-time
// extent plus the buffered io.* fragment spans. Slow or failed operations
// are additionally pinned in the flight recorder when it is armed;
// provisional traces exist only for that promotion and are dropped
// otherwise.
func (c *Client) recordOp(kind opKind, ot opTrace, st IOStat, err error, frags []telemetry.Span) {
	failed := err != nil
	if failed {
		c.ctr.ioFailures.Inc()
	} else {
		c.ctr.ops[kind].Inc()
		c.ctr.lat[kind].Record(st.Latency().Duration())
	}
	if ot.id == 0 {
		return
	}
	env := telemetry.Span{
		Trace: ot.id, ID: ot.span, Parent: ot.parent,
		Name: kind.names().span, StartV: st.PostedV, EndV: st.DoneV,
	}
	if failed {
		env.Err = err.Error()
	}
	thr := c.tracer.SlowOpThreshold()
	slow := thr > 0 && (failed || st.Latency().Duration() >= thr)
	if !ot.provisional {
		for _, s := range frags {
			c.tracer.Record(s)
		}
		c.tracer.Record(env)
	}
	if slow {
		c.ctr.slowOps.Inc()
		c.tracer.Pin(append(frags, env))
	}
}

// Node returns the client's fabric node.
func (c *Client) Node() simnet.NodeID { return c.dev.Node() }

// ControlStats returns a snapshot of the accumulated modeled control cost.
func (c *Client) ControlStats() ControlStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctrl
}

func (c *Client) chargeRPC(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ctrl.RPCTime += d
	c.ctrl.RPCs++
}

func (c *Client) chargeConnect() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ctrl.ConnectTime += c.dev.Costs().ConnectTime(c.dev.Network().Fabric().Params())
	c.ctrl.Connects++
}

func (c *Client) chargeRegister(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ctrl.RegisterTime += c.dev.Costs().RegisterTime(n)
	c.ctrl.Registers++
}

// Close tears down all connections. Mapped regions become unusable.
func (c *Client) Close() {
	c.conns.CloseAll()
	c.notify.CloseAll()
	c.masters.Close()
}

// dialMaster is the master locator's dial hook: every control connection it
// opens is charged to ControlStats.
func (c *Client) dialMaster(ctx context.Context, node simnet.NodeID) (*rpc.Conn, error) {
	if c.connected {
		c.ctr.redials.Inc()
	}
	conn, err := rpc.Dial(ctx, c.dev, node, proto.MasterService, c.pd, c.cfg.RPC)
	if err == nil {
		c.chargeConnect()
	}
	return conn, err
}

// call wraps a master RPC with control-time accounting, error mapping, and
// the client's retry policy. One attempt is one pass of the master locator
// (proto.MasterGroup.Do), which finds the primary and re-dials as needed.
// Remote business errors surface immediately; a pass in which no replica
// served — unreachable, between primaries, out of time — means the group
// is unavailable to this client for now, and is retried with capped backoff
// for as long as the caller's ctx and the retry budget last.
func (c *Client) call(ctx context.Context, mt uint16, req []byte) ([]byte, error) {
	var resp []byte
	rpcCall := func(ctx context.Context, conn *rpc.Conn) error {
		r, lat, err := conn.Call(ctx, mt, req)
		c.chargeRPC(lat)
		resp = r
		return err
	}
	err := c.retry.do(ctx, func(ctx context.Context) error {
		out, err := c.masters.Do(ctx, rpcCall)
		switch {
		case out == proto.Served:
			return mapMasterError(err)
		case errors.Is(err, rdma.ErrCacheClosed):
			return ErrClosed
		default:
			return fmt.Errorf("%w: %v", ErrMasterUnavailable, err)
		}
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// mapMasterError turns remote master errors into the client's typed
// sentinels so callers can use errors.Is across the RPC boundary.
func mapMasterError(err error) error {
	if err == nil {
		return nil
	}
	var re *rpc.RemoteError
	if !errors.As(err, &re) {
		return err
	}
	switch {
	case strings.Contains(re.Msg, "already exists"):
		return fmt.Errorf("%w: %s", ErrRegionExists, re.Msg)
	case strings.Contains(re.Msg, "not found"):
		return fmt.Errorf("%w: %s", ErrRegionNotFound, re.Msg)
	default:
		return err
	}
}

// AllocOptions tunes Alloc.
type AllocOptions struct {
	// StripeUnit is the striping granularity (0 = master default, 1 MiB).
	StripeUnit uint64
	// StripeWidth caps how many servers the region spans (0 = all alive).
	StripeWidth int
	// Replicas is the number of extra copies kept write-through.
	Replicas int
}

// Alloc reserves a named region of distributed DRAM (the paper's ralloc).
// The region exists until Free; use Map to access it.
func (c *Client) Alloc(ctx context.Context, name string, size uint64, opts AllocOptions) (*proto.RegionInfo, error) {
	req := proto.AllocRequest{
		Name:        name,
		Size:        size,
		StripeUnit:  opts.StripeUnit,
		StripeWidth: opts.StripeWidth,
		Replicas:    opts.Replicas,
		// The idempotency token makes a retried Alloc (possibly landing on a
		// freshly promoted primary after a failover) return the region the
		// first attempt created instead of "already exists".
		Token: uint64(c.dev.Node())<<32 | c.allocSeq.Add(1),
	}
	var e rpc.Encoder
	req.Encode(&e)
	resp, err := c.call(ctx, proto.MtAlloc, e.Bytes())
	if err != nil {
		return nil, fmt.Errorf("alloc %q: %w", name, err)
	}
	d := rpc.NewDecoder(resp)
	info := proto.DecodeRegionInfo(d)
	if derr := d.Err(); derr != nil {
		return nil, fmt.Errorf("alloc %q: %w", name, derr)
	}
	return info, nil
}

// Map attaches to a named region (the paper's rmap): fetches its metadata
// and establishes one-sided connections to every server it touches. After
// Map returns, data-path operations need no further setup.
func (c *Client) Map(ctx context.Context, name string) (*Region, error) {
	info, lease, err := c.fetchLayout(ctx, proto.MtMap, name)
	if err != nil {
		return nil, fmt.Errorf("map %q: %w", name, err)
	}
	return newRegion(c, info, lease), nil
}

// fetchLayout asks the master for the named region's layout and lease term
// (MtMap counts a mapping, MtRemap does not) and connects to every server
// the layout touches.
func (c *Client) fetchLayout(ctx context.Context, mt uint16, name string) (*proto.RegionInfo, uint64, error) {
	var e rpc.Encoder
	e.String(name)
	resp, err := c.call(ctx, mt, e.Bytes())
	if err != nil {
		return nil, 0, err
	}
	d := rpc.NewDecoder(resp)
	info := proto.DecodeRegionInfo(d)
	lease := d.U64() // layout-lease term, virtual nanoseconds (0 = none)
	if err := d.Err(); err != nil {
		return nil, 0, err
	}
	return info, lease, c.connectRegion(ctx, info)
}

// connectRegion eagerly connects to every server a region touches so the
// data path is setup-free, per the separation philosophy. One liveness
// snapshot from the master covers all of them: a dead server upgrades the
// failure to ErrRegionLost without a futile dial, and a bumped epoch means
// the server restarted — its old arena (and the peer of any cached QP) is
// gone, so the cached connection is replaced even though it still looks
// healthy locally.
//
// Replicated regions connect degraded: as long as at least one complete
// copy is reachable, mapping succeeds and the data path serves off the
// surviving copies while the repair plane rebuilds the rest. Only when
// every copy touches an unreachable server does the failure surface —
// as ErrRegionLost if one of those servers is declared dead.
func (c *Client) connectRegion(ctx context.Context, info *proto.RegionInfo) error {
	nodes := info.Servers()
	for _, rep := range info.Replicas {
		for _, x := range rep {
			nodes = append(nodes, x.Server)
		}
	}
	alive := make(map[simnet.NodeID]proto.ServerInfo)
	if infos, err := c.ClusterInfo(ctx); err == nil {
		for _, si := range infos {
			alive[si.Node] = si
		}
	}
	failed := make(map[simnet.NodeID]error)
	deadFailed := make(map[simnet.NodeID]bool)
	seen := make(map[simnet.NodeID]bool, len(nodes))
	for _, node := range nodes {
		if seen[node] {
			continue
		}
		seen[node] = true
		si, known := alive[node]
		if known {
			// The dead verdict can be stale in both directions (a starved
			// heartbeat marks a healthy server dead for a beat or two), so
			// it is advisory: retire the cached connection and probe with a
			// fresh dial. Only a server that is declared dead AND
			// unreachable makes the region lost.
			c.noteServer(node, si.Epoch, !si.Alive)
		}
		if _, err := c.conns.Get(ctx, node, c.dialServer); err != nil {
			failed[node] = err
			if known && !si.Alive {
				deadFailed[node] = true
			}
		}
	}
	if len(failed) == 0 {
		return nil
	}
	// Degraded tolerance: any copy with no failed server keeps the region
	// usable.
	for _, copySet := range info.Copies() {
		ok := true
		for _, x := range copySet {
			if _, bad := failed[x.Server]; bad {
				ok = false
				break
			}
		}
		if ok && len(copySet) > 0 {
			return nil
		}
	}
	for node, err := range failed {
		if deadFailed[node] || c.serverDead(ctx, node) {
			return fmt.Errorf("%w: server %v: %v", ErrRegionLost, node, err)
		}
	}
	for node, err := range failed {
		return fmt.Errorf("connect %v: %w", node, err)
	}
	return nil
}

// serverSeen is what the master last said about a memory server, as far as
// it decides whether a connection to it is still current: its incarnation,
// and how often it has been reported dead.
type serverSeen struct {
	epoch  uint64
	deaths int
}

// noteServer records the master's verdict on a server from a fresh liveness
// snapshot. A bumped epoch means the server restarted — its old arena (and
// the peer of any cached QP) is gone — and a dead verdict asks for a probe;
// either way connections dialled before it stop being current.
func (c *Client) noteServer(node simnet.NodeID, epoch uint64, dead bool) {
	c.mu.Lock()
	seen := c.servers[node]
	seen.epoch = epoch
	if dead {
		seen.deaths++
	}
	c.servers[node] = seen
	c.mu.Unlock()
}

// serverCurrent is the server-connection cache's health predicate: the QP
// is up and nothing the master said since the dial (noteServer) puts the
// peer behind it in doubt.
func (c *Client) serverCurrent(node simnet.NodeID, sc *serverConn) bool {
	c.mu.Lock()
	seen := c.servers[node]
	c.mu.Unlock()
	return sc.seen == seen && sc.healthy()
}

// serverDead asks the master whether it has declared the node dead. A
// cluster-info failure counts as "not known dead": the caller then reports
// the original connect error rather than ErrRegionLost.
func (c *Client) serverDead(ctx context.Context, node simnet.NodeID) bool {
	infos, err := c.ClusterInfo(ctx)
	if err != nil {
		return false
	}
	for _, si := range infos {
		if si.Node == node {
			return !si.Alive
		}
	}
	return false
}

// AllocMap allocates and immediately maps a region.
func (c *Client) AllocMap(ctx context.Context, name string, size uint64, opts AllocOptions) (*Region, error) {
	if _, err := c.Alloc(ctx, name, size, opts); err != nil {
		return nil, err
	}
	return c.Map(ctx, name)
}

// Free releases a region's memory at the master (the paper's rfree). All
// mappings must have been unmapped first.
func (c *Client) Free(ctx context.Context, name string) error {
	var e rpc.Encoder
	e.String(name)
	if _, err := c.call(ctx, proto.MtFree, e.Bytes()); err != nil {
		return fmt.Errorf("free %q: %w", name, err)
	}
	return nil
}

// RegionSummary is one row of the master's region listing.
type RegionSummary struct {
	Name     string
	ID       proto.RegionID
	Size     uint64
	MapCount int
}

// callList runs a body-less master RPC whose response is a counted list and
// decodes it one element at a time.
func callList[T any](ctx context.Context, c *Client, what string, mt uint16, decode func(*rpc.Decoder) (T, error)) ([]T, error) {
	resp, err := c.call(ctx, mt, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	d := rpc.NewDecoder(resp)
	n := d.U32()
	out := make([]T, 0, n)
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		v, err := decode(d)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", what, err)
		}
		out = append(out, v)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	return out, nil
}

// ListRegions returns the master's region table.
func (c *Client) ListRegions(ctx context.Context) ([]RegionSummary, error) {
	return callList(ctx, c, "list regions", proto.MtListRegions, func(d *rpc.Decoder) (RegionSummary, error) {
		return RegionSummary{
			Name:     d.String(),
			ID:       proto.RegionID(d.U64()),
			Size:     d.U64(),
			MapCount: int(d.U32()),
		}, nil
	})
}

// ClusterInfo reports the master's view of the memory servers.
func (c *Client) ClusterInfo(ctx context.Context) ([]proto.ServerInfo, error) {
	return callList(ctx, c, "cluster info", proto.MtClusterInfo, func(d *rpc.Decoder) (proto.ServerInfo, error) {
		return proto.DecodeServerInfo(d), nil
	})
}

// ClusterStats fetches the master's aggregated telemetry: the master's own
// snapshot plus the latest snapshot each memory server piggybacked on its
// heartbeat. Freshly booted servers may not appear until their first beat.
func (c *Client) ClusterStats(ctx context.Context) ([]proto.NodeStats, error) {
	return callList(ctx, c, "cluster stats", proto.MtStats, proto.DecodeNodeStats)
}

// ClusterHealth fetches the primary master's health-engine state: the
// current alert table (firing first), the bounded health-event ring, and
// the cluster-merged windowed telemetry backing the verdicts.
func (c *Client) ClusterHealth(ctx context.Context) (proto.HealthReport, error) {
	resp, err := c.call(ctx, proto.MtHealth, nil)
	if err != nil {
		return proto.HealthReport{}, fmt.Errorf("cluster health: %w", err)
	}
	report, err := proto.DecodeHealthReport(rpc.NewDecoder(resp))
	if err != nil {
		return proto.HealthReport{}, fmt.Errorf("cluster health: %w", err)
	}
	return report, nil
}

// MasterStatus is one master replica's self-reported replication role, as
// probed by MasterStatuses. Err is set when the replica was unreachable.
type MasterStatus struct {
	proto.MasterStatus
	Err error
}

// MasterStatuses probes every configured master replica for its
// replication role. Unlike the primary-fenced control RPCs, the status
// probe answers from any role, so standbys (and a fenced stale primary)
// report too; an unreachable replica gets a non-nil Err in its row
// instead of failing the whole probe.
func (c *Client) MasterStatuses(ctx context.Context) []MasterStatus {
	out := make([]MasterStatus, 0, len(c.cfg.Masters))
	for _, node := range c.cfg.Masters {
		st, err := c.masters.Probe(ctx, node)
		if err != nil {
			st = proto.MasterStatus{Node: node, Role: "unreachable", Primary: -1}
			err = fmt.Errorf("%w: %v", ErrMasterUnavailable, err)
		}
		out = append(out, MasterStatus{st, err})
	}
	return out
}

// RegionStatuses fetches the master's repair-plane view of every region:
// full metadata plus per-copy health, dirty, under-repair, and placement
// flags. This is the introspection surface `rstore-cli regions` renders.
func (c *Client) RegionStatuses(ctx context.Context) ([]proto.RegionStatus, error) {
	return callList(ctx, c, "region status", proto.MtRegionStatus, func(d *rpc.Decoder) (proto.RegionStatus, error) {
		return proto.DecodeRegionStatus(d), nil
	})
}

// FetchTrace pulls every buffered span for a trace: the master fans the
// request out to its own ring and every alive memory server
// (MtTraceFetch), and the client merges in its local ring — client-only
// nodes are not reachable from the master, and the local merge makes
// their spans part of the picture regardless. The bool result is false
// when any ring had evicted part of the trace or a node was unreachable.
// Feed the spans to telemetry.Assemble to build the causal tree.
func (c *Client) FetchTrace(ctx context.Context, id telemetry.TraceID) ([]telemetry.Span, bool, error) {
	var e rpc.Encoder
	(&proto.TraceFetchRequest{Trace: id}).Encode(&e)
	resp, err := c.call(ctx, proto.MtTraceFetch, e.Bytes())
	if err != nil {
		return nil, false, fmt.Errorf("trace fetch: %w", err)
	}
	r, err := proto.DecodeTraceFetchResponse(rpc.NewDecoder(resp))
	if err != nil {
		return nil, false, fmt.Errorf("trace fetch: %w", err)
	}
	local, localComplete := c.tracer.SpansFor(id)
	return append(r.Spans, local...), r.Complete && localComplete, nil
}

// reportDegraded tells the master copy copyIdx of the region missed a
// write, returning the region's current generation from the response.
func (c *Client) reportDegraded(ctx context.Context, name string, copyIdx int) (uint64, error) {
	rep := proto.DegradedReport{Name: name, Copy: copyIdx}
	var e rpc.Encoder
	rep.Encode(&e)
	resp, err := c.call(ctx, proto.MtReportDegraded, e.Bytes())
	if err != nil {
		return 0, err
	}
	d := rpc.NewDecoder(resp)
	return d.U64(), d.Err()
}

// dialServer opens the one-sided connection to a memory server. The conns
// cache shares it across all regions — the QP amortization the paper's
// control-path evaluation highlights.
func (c *Client) dialServer(ctx context.Context, node simnet.NodeID) (*serverConn, error) {
	c.mu.Lock()
	seen := c.servers[node]
	c.mu.Unlock()
	qp, err := c.dev.Dial(ctx, node, proto.MemDataService, c.pd, rdma.ConnOpts{SendDepth: c.cfg.QPDepth, RecvDepth: 16})
	if err != nil {
		return nil, err
	}
	// The connection's atomic result word is part of its set-up: the
	// modeled ConnectTime covers it, no separate registration is charged.
	scratch, err := c.pd.RegisterMemory(make([]byte, 8), rdma.AccessLocalWrite)
	if err != nil {
		qp.Close()
		return nil, err
	}
	c.chargeConnect()
	return newServerConn(qp, scratch, seen), nil
}
