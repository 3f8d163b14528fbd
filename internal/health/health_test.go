package health

import (
	"strings"
	"testing"
	"time"

	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// winSnap builds a one-window snapshot from counter deltas and gauges.
func winSnap(counters map[string]int64, gauges map[string]int64) telemetry.Snapshot {
	s := telemetry.Snapshot{
		WidthNS:          int64(time.Millisecond),
		CounterWindows:   map[string]telemetry.Ring[int64]{},
		GaugeWindows:     map[string]telemetry.Ring[int64]{},
		HistogramWindows: map[string]telemetry.Ring[telemetry.HistogramSnapshot]{},
	}
	for name, v := range counters {
		s.CounterWindows[name] = telemetry.Ring[int64]{End: 1, Vals: []int64{v}}
	}
	for name, v := range gauges {
		s.GaugeWindows[name] = telemetry.Ring[int64]{End: 1, Vals: []int64{v}}
	}
	return s
}

func TestThresholdFireAndResolve(t *testing.T) {
	e := NewEngine([]Rule{
		Threshold("abort-spike", SevWarn,
			Ratio(WindowDelta("aborts", 0), WindowDelta("attempts", 0), 10),
			0.5, func(v float64) string { return "spike" }),
	})

	// No windowed data at all: the probe is not ok, nothing fires.
	fired, resolved := e.Eval(Input{Now: 1})
	if fired != 0 || resolved != 0 {
		t.Fatalf("empty eval = %d fired %d resolved, want 0,0", fired, resolved)
	}

	// Under the sample floor: still quiet even though the ratio is high.
	fired, _ = e.Eval(Input{Now: 2, Windows: winSnap(map[string]int64{"aborts": 4, "attempts": 5}, nil)})
	if fired != 0 {
		t.Fatal("fired below the denominator floor")
	}

	fired, _ = e.Eval(Input{Now: 3, Windows: winSnap(map[string]int64{"aborts": 30, "attempts": 40}, nil)})
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	alerts := e.Alerts()
	if len(alerts) != 1 || alerts[0].State != StateFiring || alerts[0].FiredV != 3 {
		t.Fatalf("alerts = %+v, want one firing at V=3", alerts)
	}

	// Still firing: no duplicate transition.
	fired, resolved = e.Eval(Input{Now: 4, Windows: winSnap(map[string]int64{"aborts": 30, "attempts": 40}, nil)})
	if fired != 0 || resolved != 0 {
		t.Fatalf("steady eval = %d fired %d resolved, want 0,0", fired, resolved)
	}

	_, resolved = e.Eval(Input{Now: 5, Windows: winSnap(map[string]int64{"aborts": 1, "attempts": 40}, nil)})
	if resolved != 1 {
		t.Fatalf("resolved = %d, want 1", resolved)
	}
	a := e.Alerts()[0]
	if a.State != StateResolved || a.FiredV != 3 || a.ResolvedV != 5 {
		t.Fatalf("alert = %+v, want resolved with FiredV=3 ResolvedV=5", a)
	}
	evs := e.Events()
	if len(evs) != 2 || !evs[0].Firing || evs[1].Firing {
		t.Fatalf("events = %+v, want fire then resolve", evs)
	}
}

func TestNotDrainingStreak(t *testing.T) {
	e := NewEngine([]Rule{
		NotDraining("backlog", SevWarn, GaugeWindow("depth"), 3,
			func(v float64) string { return "stuck" }),
	})
	at := func(now simnet.VTime, depth int64) (int, int) {
		return e.Eval(Input{Now: now, Windows: winSnap(nil, map[string]int64{"depth": depth})})
	}
	// Rising backlog: needs 3 consecutive non-draining observations after
	// the first to fire.
	for i, depth := range []int64{5, 5, 6} {
		if fired, _ := at(simnet.VTime(i+1), depth); fired != 0 {
			t.Fatalf("fired on observation %d", i)
		}
	}
	if fired, _ := at(4, 7); fired != 1 {
		t.Fatal("did not fire after 3 non-draining evaluations")
	}
	// A decrease means it is draining: resolves and resets the streak.
	if _, resolved := at(5, 3); resolved != 1 {
		t.Fatal("did not resolve on drain")
	}
	if fired, _ := at(6, 4); fired != 0 {
		t.Fatal("refired without a fresh streak")
	}
}

func TestServerSilentRule(t *testing.T) {
	e := NewEngine([]Rule{serverSilent()})
	dead := ClusterView{Servers: []ServerHealth{
		{Node: 2, Alive: true, HoldsData: true},
		{Node: 3, Alive: false, HoldsData: true, SilentFor: 60 * time.Millisecond},
	}}
	fired, _ := e.Eval(Input{Now: 10, Cluster: dead})
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	a := e.Alerts()[0]
	if a.Target != "node-3" || a.Severity != SevCrit || !strings.Contains(a.Msg, "server 3") {
		t.Fatalf("alert = %+v, want crit for node-3", a)
	}

	// Repair re-homed everything off node 3 (still dead): resolves.
	repaired := ClusterView{Servers: []ServerHealth{
		{Node: 2, Alive: true, HoldsData: true},
		{Node: 3, Alive: false, HoldsData: false, SilentFor: 200 * time.Millisecond},
	}}
	_, resolved := e.Eval(Input{Now: 20, Cluster: repaired})
	if resolved != 1 {
		t.Fatalf("resolved = %d, want 1", resolved)
	}
}

func TestDefaultRulesFireOnSyntheticInputs(t *testing.T) {
	e := NewEngine(DefaultRules())
	in := Input{
		Now: 7,
		Cluster: ClusterView{Servers: []ServerHealth{
			{Node: 4, Alive: false, HoldsData: true, SilentFor: 80 * time.Millisecond},
		}},
		Windows: winSnap(map[string]int64{
			"txn.aborts":         40,
			"txn.commits":        10,
			"master.failovers":   1,
			"index.retraversals": 50,
			"index.lookups":      100,
		}, nil),
	}
	fired, _ := e.Eval(in)
	if fired != 4 {
		t.Fatalf("fired = %d, want 4 (server-silent, abort-spike, failover, index-storm)", fired)
	}
	names := map[string]bool{}
	for _, a := range e.Alerts() {
		names[a.Rule] = true
	}
	for _, want := range []string{"server-silent", "txn-abort-spike", "master-failover", "index-retraversal-storm"} {
		if !names[want] {
			t.Fatalf("missing alert %q in %v", want, names)
		}
	}
	// Healthy input resolves everything.
	healthy := Input{Now: 8, Windows: winSnap(map[string]int64{
		"txn.aborts": 0, "txn.commits": 100, "master.failovers": 0,
		"index.retraversals": 1, "index.lookups": 100,
	}, nil)}
	if _, resolved := e.Eval(healthy); resolved != 4 {
		t.Fatalf("resolved = %d, want 4", resolved)
	}
}

func TestEventRingBounded(t *testing.T) {
	e := NewEngine([]Rule{
		Threshold("flappy", SevInfo, GaugeWindow("v"), 0,
			func(v float64) string { return "on" }),
	})
	// Flap the alert far past the ring capacity.
	for i := 0; i < 2*eventRingCap; i++ {
		v := int64(i%2 + 0) // 0,1,0,1,... fires on odd, resolves on even
		e.Eval(Input{Now: simnet.VTime(i + 1), Windows: winSnap(nil, map[string]int64{"v": v})})
	}
	evs := e.Events()
	if len(evs) != eventRingCap {
		t.Fatalf("ring length = %d, want %d", len(evs), eventRingCap)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].V <= evs[i-1].V {
			t.Fatalf("ring out of order at %d: %v after %v", i, evs[i].V, evs[i-1].V)
		}
	}
}

func TestResolvedAlertsPruned(t *testing.T) {
	e := NewEngine([]Rule{serverSilent()})
	// Fire and resolve many distinct targets.
	for i := 0; i < 2*maxResolvedAlerts; i++ {
		node := simnet.NodeID(i)
		e.Eval(Input{Now: simnet.VTime(2*i + 1), Cluster: ClusterView{Servers: []ServerHealth{
			{Node: node, Alive: false, HoldsData: true},
		}}})
		e.Eval(Input{Now: simnet.VTime(2*i + 2), Cluster: ClusterView{Servers: []ServerHealth{
			{Node: node, Alive: true, HoldsData: true},
		}}})
	}
	alerts := e.Alerts()
	if len(alerts) != maxResolvedAlerts {
		t.Fatalf("alert table = %d entries, want pruned to %d", len(alerts), maxResolvedAlerts)
	}
}

func TestDumpRendersAlertsAndEvents(t *testing.T) {
	e := NewEngine([]Rule{serverSilent()})
	e.Eval(Input{Now: 5, Cluster: ClusterView{Servers: []ServerHealth{
		{Node: 1, Alive: false, HoldsData: true, SilentFor: 40 * time.Millisecond},
	}}})
	var b strings.Builder
	e.Dump(&b)
	out := b.String()
	for _, want := range []string{"server-silent", "node-1", "firing", "crit", "events"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}
