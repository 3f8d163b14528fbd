// Package core assembles the full RStore system — fabric, RDMA network,
// master, memory servers — into an in-process cluster, and re-exports the
// client's memory-like API. It is the entry point examples, applications,
// and the benchmark harness build on.
//
// A Cluster models the paper's testbed: N machines on a switched fabric,
// one running the master, the rest donating DRAM as memory servers.
// Clients may run on any machine (the paper co-locates compute with memory
// servers).
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"rstore/internal/client"
	"rstore/internal/master"
	"rstore/internal/memserver"
	"rstore/internal/proto"
	"rstore/internal/rdma"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// Re-exported client types, so applications depend on core alone.
type (
	// Client is an RStore client endpoint.
	Client = client.Client
	// Region is a mapped region handle.
	Region = client.Region
	// Buf is a registered zero-copy buffer.
	Buf = client.Buf
	// AllocOptions tunes allocation.
	AllocOptions = client.AllocOptions
	// IOStat reports a data-path operation in virtual time.
	IOStat = client.IOStat
	// Notification is a region producer/consumer signal.
	Notification = client.Notification
	// ControlStats meters modeled control-path cost.
	ControlStats = client.ControlStats
	// NodeStats is one node's telemetry snapshot in a ClusterStats response.
	NodeStats = proto.NodeStats
	// RegionStatus is the master's repair-plane view of one region.
	RegionStatus = proto.RegionStatus

	HealthReport = proto.HealthReport
	// MasterStatus is one master replica's self-reported replication role.
	MasterStatus = client.MasterStatus
)

// ErrBadNode reports a node outside the cluster.
var ErrBadNode = errors.New("core: node outside cluster")

// ErrMasterUnavailable is the client's master-outage sentinel, re-exported
// so tooling depending on core alone can errors.Is against it.
var ErrMasterUnavailable = client.ErrMasterUnavailable

// Config sizes a cluster.
type Config struct {
	// Machines is the total node count (masters + memory servers). The
	// paper's testbed has 12. Default 4.
	Machines int
	// MasterReplicas is how many machines run master replicas (nodes
	// 0..MasterReplicas-1; node 0 boots as primary, the rest as standbys).
	// Default 1 — a single, unreplicated master, exactly the paper's
	// deployment.
	MasterReplicas int
	// LeaseTerm is the layout-lease term masters grant to clients
	// (forwarded to master.Config.LeaseTerm: 0 = master default, negative
	// = disable lease discipline).
	LeaseTerm time.Duration
	// ExtraClientNodes adds client-only machines beyond Machines.
	ExtraClientNodes int
	// ServerCapacity is the DRAM each memory server donates. Default 64 MiB.
	ServerCapacity uint64
	// Params overrides the fabric cost model (zero value = calibrated
	// defaults).
	Params *simnet.Params
	// Costs overrides the verbs CPU cost model.
	Costs *rdma.Costs
	// HeartbeatInterval speeds up failure detection in tests. Default 100ms.
	HeartbeatInterval time.Duration
	// Repair overrides the master's repair-plane tuning (zero values keep
	// the master's defaults; only the fields below are forwarded).
	Repair RepairConfig
	// RPC tunes all control connections.
	RPC rpc.Options
}

// RepairConfig forwards repair-plane knobs to the master.
type RepairConfig struct {
	// Concurrency is how many repair tasks run at once.
	Concurrency int
	// Chunk is the per-read transfer size of repair pulls.
	Chunk uint64
	// RateBytesPerSec caps each repair pull's bandwidth on virtual time.
	RateBytesPerSec uint64
	// PullHook is the repair fault-injection point (see
	// master.Config.RepairPullHook).
	PullHook func(src proto.Extent)
}

func (c Config) withDefaults() Config {
	if c.Machines <= 0 {
		c.Machines = 4
	}
	if c.MasterReplicas <= 0 {
		c.MasterReplicas = 1
	}
	if c.ServerCapacity == 0 {
		c.ServerCapacity = 64 << 20
	}
	return c
}

// Cluster is a running in-process RStore deployment.
type Cluster struct {
	cfg     Config
	fabric  *simnet.Fabric
	network *rdma.Network
	masters []*master.Master
	servers []*memserver.Server

	mu      sync.Mutex
	clients []*client.Client
	closed  bool
}

// Start boots a cluster: nodes 0..MasterReplicas-1 run master replicas
// (node 0 as the boot primary), nodes MasterReplicas..Machines-1 run
// memory servers, and ExtraClientNodes further nodes are client-only.
func Start(ctx context.Context, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.MasterReplicas >= cfg.Machines {
		return nil, fmt.Errorf("core: %d master replicas leave no memory servers among %d machines",
			cfg.MasterReplicas, cfg.Machines)
	}
	params := simnet.DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	costs := rdma.DefaultCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	fabric := simnet.NewFabric(cfg.Machines+cfg.ExtraClientNodes, params)
	network := rdma.NewNetworkWithCosts(fabric, costs)

	var peers []simnet.NodeID
	if cfg.MasterReplicas > 1 {
		for i := 0; i < cfg.MasterReplicas; i++ {
			peers = append(peers, simnet.NodeID(i))
		}
	}
	cl := &Cluster{cfg: cfg, fabric: fabric, network: network}
	for i := 0; i < cfg.MasterReplicas; i++ {
		masterDev, err := network.OpenDevice(simnet.NodeID(i))
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("core: %w", err)
		}
		m, err := master.Start(masterDev, master.Config{
			HeartbeatInterval:     cfg.HeartbeatInterval,
			Peers:                 peers,
			LeaseTerm:             cfg.LeaseTerm,
			RepairConcurrency:     cfg.Repair.Concurrency,
			RepairChunk:           cfg.Repair.Chunk,
			RepairRateBytesPerSec: cfg.Repair.RateBytesPerSec,
			RepairPullHook:        cfg.Repair.PullHook,
			RPC:                   cfg.RPC,
		})
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("core: start master on node %d: %w", i, err)
		}
		cl.masters = append(cl.masters, m)
	}

	for node := cfg.MasterReplicas; node < cfg.Machines; node++ {
		dev, err := network.OpenDevice(simnet.NodeID(node))
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("core: %w", err)
		}
		srv, err := memserver.Start(ctx, dev, memserver.Config{
			Capacity:          cfg.ServerCapacity,
			Master:            0,
			Masters:           cl.MasterNodes(),
			HeartbeatInterval: cfg.HeartbeatInterval,
			RPC:               cfg.RPC,
		})
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("core: start memserver on node %d: %w", node, err)
		}
		cl.servers = append(cl.servers, srv)
	}
	return cl, nil
}

// Fabric exposes the simulated fabric (stats, failure injection).
func (c *Cluster) Fabric() *simnet.Fabric { return c.fabric }

// Network exposes the verbs network.
func (c *Cluster) Network() *rdma.Network { return c.network }

// Master exposes the coordinator: the replica currently acting as primary
// (the highest-epoch one when a stale primary has not yet fenced itself),
// falling back to the boot primary when none claims the role.
func (c *Cluster) Master() *master.Master {
	var best *master.Master
	var bestEpoch uint64
	for _, m := range c.masters {
		role, epoch, _ := m.Status()
		if role == "primary" && (best == nil || epoch > bestEpoch) {
			best = m
			bestEpoch = epoch
		}
	}
	if best != nil {
		return best
	}
	return c.masters[0]
}

// Masters returns every running master replica, in node order.
func (c *Cluster) Masters() []*master.Master {
	out := make([]*master.Master, len(c.masters))
	copy(out, c.masters)
	return out
}

// MasterNodes returns the fabric nodes hosting master replicas.
func (c *Cluster) MasterNodes() []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(c.masters))
	for i := range c.masters {
		out = append(out, simnet.NodeID(i))
	}
	return out
}

// KillMaster drops a master replica's node off the fabric (the failover
// trigger). ReviveServer brings it back as a fenced stale replica.
func (c *Cluster) KillMaster(node simnet.NodeID) error {
	return c.fabric.SetNodeUp(node, false)
}

// WaitMasterRole blocks until the master replica on the given node reports
// the wanted role ("primary" or "standby") at an epoch of at least
// minEpoch, or the timeout passes. Wall-clock polling, like
// WaitServerDead: failover progress rides on heartbeat timers.
func (c *Cluster) WaitMasterRole(node simnet.NodeID, want string, minEpoch uint64, timeout time.Duration) error {
	if int(node) < 0 || int(node) >= len(c.masters) {
		return fmt.Errorf("%w: %v", ErrBadNode, node)
	}
	m := c.masters[node]
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		role, epoch, _ := m.Status()
		if role == want && epoch >= minEpoch {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	role, epoch, _ := m.Status()
	return fmt.Errorf("core: master %v still %s@%d (want %s@>=%d) after %v",
		node, role, epoch, want, minEpoch, timeout)
}

// Servers returns the running memory servers.
func (c *Cluster) Servers() []*memserver.Server {
	out := make([]*memserver.Server, len(c.servers))
	copy(out, c.servers)
	return out
}

// MemoryServerNodes returns the fabric nodes hosting memory servers.
func (c *Cluster) MemoryServerNodes() []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(c.servers))
	for _, s := range c.servers {
		out = append(out, s.Node())
	}
	return out
}

// NewClient opens a client on the given fabric node. Multiple clients per
// node are allowed (they model separate application processes).
func (c *Cluster) NewClient(ctx context.Context, node simnet.NodeID) (*client.Client, error) {
	if int(node) < 0 || int(node) >= c.fabric.Size() {
		return nil, fmt.Errorf("%w: %v", ErrBadNode, node)
	}
	dev, err := c.network.OpenDevice(node)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cli, err := client.Connect(ctx, dev, client.Config{Master: 0, Masters: c.MasterNodes(), RPC: c.cfg.RPC})
	if err != nil {
		return nil, fmt.Errorf("core: connect client on %v: %w", node, err)
	}
	c.mu.Lock()
	c.clients = append(c.clients, cli)
	c.mu.Unlock()
	return cli, nil
}

// registries returns every distinct metric registry in the cluster.
// Roles co-located on one machine share the node's device — and therefore
// its registry — so the walk dedupes by registry pointer to keep merged
// counters from double-counting.
func (c *Cluster) registries() []*telemetry.Registry {
	var out []*telemetry.Registry
	seen := make(map[*telemetry.Registry]bool)
	add := func(r *telemetry.Registry) {
		if r != nil && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, m := range c.masters {
		add(m.Telemetry())
	}
	for _, s := range c.servers {
		add(s.Telemetry())
	}
	c.mu.Lock()
	clients := append([]*client.Client(nil), c.clients...)
	c.mu.Unlock()
	for _, cli := range clients {
		add(cli.Telemetry())
	}
	return out
}

// TelemetrySnapshot returns the cluster-wide merged telemetry — counters
// and gauges summed, histograms merged, window rings merged
// bucket-aligned — across the master, every memory server, and every
// client opened through NewClient. Unlike Client.ClusterStats and
// Client.ClusterHealth it reads the in-process registries directly, so it
// is exact and does not wait for a heartbeat cycle.
func (c *Cluster) TelemetrySnapshot() telemetry.Snapshot {
	var out telemetry.Snapshot
	for _, r := range c.registries() {
		out.Merge(r.Snapshot())
	}
	return out
}

// SetTelemetryEnabled toggles metric collection on every node. Disabled
// registries cost one atomic load per would-be update on the hot path.
func (c *Cluster) SetTelemetryEnabled(on bool) {
	for _, r := range c.registries() {
		r.SetEnabled(on)
	}
}

// SetTraceSampling sets every node's root-trace sampling rate: 0 disables
// tracing, n>0 samples one in every n new operations.
func (c *Cluster) SetTraceSampling(n int) {
	for _, r := range c.registries() {
		r.Tracer().SetSampling(n)
	}
}

// SetSlowOpThreshold arms (d > 0) or disarms (d == 0) the slow-op flight
// recorder on every node: data-path ops whose modeled latency reaches d —
// or that fail — are retroactively promoted to traced and pinned in the
// flight ring, even when head sampling never picked them.
func (c *Cluster) SetSlowOpThreshold(d time.Duration) {
	for _, r := range c.registries() {
		r.Tracer().SetSlowOpThreshold(d)
	}
}

// SetWindowWidth sets the virtual-time bucket width of every node's
// windowed telemetry (0 disables windowing entirely — the overhead guard
// uses this to isolate the window rings' cost).
func (c *Cluster) SetWindowWidth(d time.Duration) {
	for _, r := range c.registries() {
		r.SetWindowWidth(d)
	}
}

// DumpHealth writes every master replica's health-engine state to w —
// the health counterpart of DumpFlight, attached to chaos artifacts.
func (c *Cluster) DumpHealth(w io.Writer) {
	for _, m := range c.Masters() {
		fmt.Fprintf(w, "== master node %d ==\n", m.Node())
		m.DumpHealth(w)
	}
}

// FlightSpans returns every span pinned in any node's flight-recorder
// ring, for post-mortem dumps.
func (c *Cluster) FlightSpans() []telemetry.Span {
	var spans []telemetry.Span
	for _, r := range c.registries() {
		spans = append(spans, r.Tracer().FlightSpans()...)
	}
	return spans
}

// DumpFlight writes every node's flight-recorder contents to w, one
// section per registry. Used by the chaos harness to attach slow-op
// evidence to failing runs.
func (c *Cluster) DumpFlight(w io.Writer) {
	for _, r := range c.registries() {
		r.Tracer().DumpFlight(w)
	}
}

// KillServer simulates a machine failure: the node drops off the fabric,
// in-flight ops against it fail, and heartbeats stop reaching the master.
func (c *Cluster) KillServer(node simnet.NodeID) error {
	return c.fabric.SetNodeUp(node, false)
}

// ReviveServer brings a killed node's link back.
func (c *Cluster) ReviveServer(node simnet.NodeID) error {
	return c.fabric.SetNodeUp(node, true)
}

// WaitServerDead blocks until the master marks the node dead (or timeout).
func (c *Cluster) WaitServerDead(node simnet.NodeID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		alive := false
		for _, id := range c.Master().AliveServers() {
			if id == node {
				alive = true
				break
			}
		}
		if !alive {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("core: server %v still alive after %v", node, timeout)
}

// Close stops every component.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	clients := c.clients
	c.clients = nil
	c.mu.Unlock()

	for _, cli := range clients {
		cli.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	for _, m := range c.masters {
		m.Close()
	}
}
