package master

// The master is the health engine's host: it is the one vantage point
// that already holds liveness verdicts, repair-plane state, and — via the
// telemetry snapshot every heartbeat piggybacks — each server's current
// rates. After every monitor tick the primary assembles an immutable
// health.Input from that state and runs the rule engine over it; MtHealth
// serves the resulting alert table, event ring, and merged telemetry.

import (
	"context"
	"io"
	"time"

	"rstore/internal/health"
	"rstore/internal/proto"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// healthViewLocked reads one evaluation's facts off the master's state:
// per-server liveness (with whether region copies still reference the
// server — what lets a server-silent alert resolve once repair re-homes
// everything), repair-plane summary state, and every server's latest
// telemetry snapshot. Caller holds m.mu.
func (m *Master) healthViewLocked(now time.Time) (health.ClusterView, []*telemetry.Snapshot) {
	referenced := make(map[simnet.NodeID]bool)
	degraded := 0
	for name, rs := range m.st.regionsByName {
		bad := rs.lost
		for ci := 0; ci < rs.copyCount(); ci++ {
			if rs.dirty[ci] || m.underRepair[repairKey{name: name, copy: ci}] {
				bad = true
			}
			for _, x := range rs.copyExtents(ci) {
				referenced[x.Server] = true
			}
		}
		if bad {
			degraded++
		}
	}
	view := health.ClusterView{
		RepairQueueDepth: m.ctr.repairQueueDepth.Value(),
		DegradedRegions:  degraded,
	}
	var servers []*telemetry.Snapshot
	for _, s := range m.st.servers {
		b := m.beat(s.node)
		sh := health.ServerHealth{
			Node:      s.node,
			Alive:     s.alive,
			HoldsData: referenced[s.node],
		}
		if !s.alive {
			sh.SilentFor = now.Sub(b.lastBeat)
		}
		view.Servers = append(view.Servers, sh)
		if b.tel != nil {
			servers = append(servers, b.tel)
		}
	}
	return view, servers
}

// healthInput completes an evaluation's fact set outside m.mu: own — the
// master's own snapshot, taken by the caller before the lock — absorbs the
// servers' snapshots into the cluster-merged telemetry the rules read.
func (m *Master) healthInput(view health.ClusterView, own telemetry.Snapshot, servers []*telemetry.Snapshot) health.Input {
	for _, tel := range servers {
		own.Merge(*tel)
	}
	return health.Input{Now: m.vnow(), Cluster: view, Windows: own}
}

// evalHealth runs the engine over one assembled input.
func (m *Master) evalHealth(in health.Input) {
	fired, resolved := m.engine.Eval(in)
	m.ctr.healthEvals.Inc()
	m.ctr.healthFired.Add(int64(fired))
	m.ctr.healthResolved.Add(int64(resolved))
}

// handleHealth serves MtHealth: the current alert table, the health-event
// ring, and freshly merged telemetry. Primary-only — a standby's
// engine has never evaluated (verdict inputs are firsthand only on the
// primary), so its empty tables would read as "all healthy".
func (m *Master) handleHealth(_ context.Context, _ simnet.NodeID, _ *rpc.Decoder) (*rpc.Encoder, error) {
	m.ctr.healthRequests.Inc()
	own := m.tel.Snapshot()
	var view health.ClusterView
	var servers []*telemetry.Snapshot
	if err := m.asPrimary(func() error {
		view, servers = m.healthViewLocked(time.Now())
		return nil
	}); err != nil {
		return nil, err
	}
	report := proto.HealthReport{
		Alerts:  m.engine.Alerts(),
		Events:  m.engine.Events(),
		Windows: m.healthInput(view, own, servers).Windows,
	}
	e := &rpc.Encoder{}
	if err := report.Encode(e); err != nil {
		return nil, err
	}
	return e, nil
}

// HealthAlerts returns the engine's current alert table (tests and local
// tooling; remote callers use MtHealth).
func (m *Master) HealthAlerts() []health.Alert { return m.engine.Alerts() }

// DumpHealth writes the engine's alert table and event ring — the health
// counterpart of the tracer's flight-recorder dump, attached to chaos
// artifacts on test failure.
func (m *Master) DumpHealth(w io.Writer) { m.engine.Dump(w) }
