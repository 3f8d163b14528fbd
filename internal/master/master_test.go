package master

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"rstore/internal/proto"
	"rstore/internal/rdma"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// harness boots a master on node 0 of a small fabric and returns dialers
// for playing the roles of memory servers and clients.
type harness struct {
	t   *testing.T
	net *rdma.Network
	m   *Master
}

func newHarness(t *testing.T, nodes int) *harness {
	t.Helper()
	f := simnet.NewFabric(nodes, simnet.DefaultParams())
	n := rdma.NewNetwork(f)
	dev, err := n.OpenDevice(0)
	if err != nil {
		t.Fatalf("OpenDevice: %v", err)
	}
	m, err := Start(dev, Config{HeartbeatInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(m.Close)
	return &harness{t: t, net: n, m: m}
}

func (h *harness) dial(node simnet.NodeID) *rpc.Conn {
	h.t.Helper()
	dev, err := h.net.OpenDevice(node)
	if err != nil {
		h.t.Fatalf("OpenDevice: %v", err)
	}
	conn, err := rpc.Dial(context.Background(), dev, 0, proto.MasterService, nil, rpc.Options{})
	if err != nil {
		h.t.Fatalf("Dial: %v", err)
	}
	h.t.Cleanup(conn.Close)
	return conn
}

// registerServer announces a fake memory server with the given capacity.
func (h *harness) registerServer(conn *rpc.Conn, capacity uint64, rkey uint32) {
	h.t.Helper()
	var e rpc.Encoder
	e.U64(capacity)
	e.U32(rkey)
	if _, _, err := conn.Call(context.Background(), proto.MtRegisterServer, e.Bytes()); err != nil {
		h.t.Fatalf("register server: %v", err)
	}
}

func (h *harness) alloc(conn *rpc.Conn, req proto.AllocRequest) (*proto.RegionInfo, error) {
	h.t.Helper()
	var e rpc.Encoder
	req.Encode(&e)
	resp, _, err := conn.Call(context.Background(), proto.MtAlloc, e.Bytes())
	if err != nil {
		return nil, err
	}
	d := rpc.NewDecoder(resp)
	info := proto.DecodeRegionInfo(d)
	if derr := d.Err(); derr != nil {
		h.t.Fatalf("decode alloc response: %v", derr)
	}
	return info, nil
}

func TestAllocPlacesOnLeastLoadedServer(t *testing.T) {
	h := newHarness(t, 3)
	s1 := h.dial(1)
	s2 := h.dial(2)
	h.registerServer(s1, 1<<20, 11)
	h.registerServer(s2, 1<<20, 22)

	// Fill most of server 1 (width 1 lands on the emptiest; both are
	// empty, tie broken by node id → node 1).
	first, err := h.alloc(s1, proto.AllocRequest{Name: "fill", Size: 700 << 10, StripeUnit: 4096, StripeWidth: 1})
	if err != nil {
		t.Fatalf("alloc fill: %v", err)
	}
	if first.Extents[0].Server != 1 {
		t.Fatalf("first alloc on %v, want node 1 (tie break)", first.Extents[0].Server)
	}
	// The next width-1 allocation must go to the emptier server 2.
	second, err := h.alloc(s1, proto.AllocRequest{Name: "next", Size: 100 << 10, StripeUnit: 4096, StripeWidth: 1})
	if err != nil {
		t.Fatalf("alloc next: %v", err)
	}
	if second.Extents[0].Server != 2 {
		t.Errorf("second alloc on %v, want least-loaded node 2", second.Extents[0].Server)
	}
	if second.Extents[0].RKey != 22 {
		t.Errorf("rkey = %d, want server 2's 22", second.Extents[0].RKey)
	}
}

func TestAllocRollbackOnInsufficientSpace(t *testing.T) {
	h := newHarness(t, 3)
	s1 := h.dial(1)
	s2 := h.dial(2)
	h.registerServer(s1, 1<<20, 11)
	h.registerServer(s2, 256<<10, 22)

	// A wide region too big for server 2's arena must fail entirely and
	// release whatever it grabbed from server 1.
	if _, err := h.alloc(s1, proto.AllocRequest{Name: "big", Size: 1 << 20, StripeUnit: 4096}); err == nil {
		t.Fatal("oversized wide alloc should fail")
	}
	// Everything must fit again afterwards.
	if _, err := h.alloc(s1, proto.AllocRequest{Name: "ok", Size: 1 << 20, StripeUnit: 64 << 10, StripeWidth: 1}); err != nil {
		t.Fatalf("alloc after rollback: %v", err)
	}
}

func TestReplicaRollbackOnFailure(t *testing.T) {
	h := newHarness(t, 2)
	s1 := h.dial(1)
	h.registerServer(s1, 1<<20, 11)

	// One server cannot host primary + replica of 700 KiB each.
	if _, err := h.alloc(s1, proto.AllocRequest{Name: "rep", Size: 700 << 10, StripeUnit: 4096, Replicas: 1}); err == nil {
		t.Fatal("replicated alloc beyond capacity should fail")
	}
	// The full megabyte is still available.
	if _, err := h.alloc(s1, proto.AllocRequest{Name: "all", Size: 1 << 20, StripeUnit: 64 << 10}); err != nil {
		t.Fatalf("alloc after replica rollback: %v", err)
	}
}

func TestHeartbeatFromUnknownServer(t *testing.T) {
	h := newHarness(t, 2)
	conn := h.dial(1)
	if _, _, err := conn.Call(context.Background(), proto.MtHeartbeat, nil); err == nil {
		t.Error("heartbeat before registration should fail")
	}
}

func TestMissedHeartbeatsMarkDead(t *testing.T) {
	h := newHarness(t, 2)
	conn := h.dial(1)
	h.registerServer(conn, 1<<20, 11)
	if got := h.m.AliveServers(); len(got) != 1 {
		t.Fatalf("alive = %v", got)
	}
	// Stop beating: within a few intervals the master declares it dead.
	deadline := time.Now().Add(2 * time.Second)
	for len(h.m.AliveServers()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never marked dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A heartbeat revives it.
	if _, _, err := conn.Call(context.Background(), proto.MtHeartbeat, nil); err != nil {
		t.Fatalf("revival heartbeat: %v", err)
	}
	if got := h.m.AliveServers(); len(got) != 1 {
		t.Errorf("alive after revival = %v", got)
	}
}

func TestAllocValidation(t *testing.T) {
	h := newHarness(t, 2)
	conn := h.dial(1)
	h.registerServer(conn, 1<<20, 11)

	if _, err := h.alloc(conn, proto.AllocRequest{Name: "", Size: 4096}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := h.alloc(conn, proto.AllocRequest{Name: "a", Size: 4096}); err != nil {
		t.Errorf("default stripe unit should apply: %v", err)
	}
	if _, err := h.alloc(conn, proto.AllocRequest{Name: "a", Size: 4096}); err == nil {
		t.Error("duplicate name should fail")
	}
}

func TestRegionCountTracksLifecycle(t *testing.T) {
	h := newHarness(t, 2)
	conn := h.dial(1)
	h.registerServer(conn, 1<<20, 11)
	if _, err := h.alloc(conn, proto.AllocRequest{Name: "x", Size: 4096, StripeUnit: 4096}); err != nil {
		t.Fatalf("alloc: %v", err)
	}
	if h.m.RegionCount() != 1 {
		t.Fatalf("count = %d", h.m.RegionCount())
	}
	var e rpc.Encoder
	e.String("x")
	if _, _, err := conn.Call(context.Background(), proto.MtFree, e.Bytes()); err != nil {
		t.Fatalf("free: %v", err)
	}
	if h.m.RegionCount() != 0 {
		t.Fatalf("count after free = %d", h.m.RegionCount())
	}
}

// TestReplicaPlacementDisjointProperty: across stripe widths and replica
// counts, every pair of copies lands on disjoint node sets whenever the
// cluster is large enough to allow it — and when it is not, the allocation
// still succeeds but the fallback is recorded (placement_degraded counter,
// PlacementDegraded status flag), never silent.
func TestReplicaPlacementDisjointProperty(t *testing.T) {
	const servers = 6
	h := newHarness(t, servers+1)
	conn := h.dial(1)
	srvConns := make([]*rpc.Conn, servers)
	for n := 1; n <= servers; n++ {
		srvConns[n-1] = h.dial(simnet.NodeID(n))
		h.registerServer(srvConns[n-1], 32<<20, uint32(100+n))
	}
	// The fake servers have no heartbeat loop and the harness death window
	// is 60 ms; beat them all so no server dies mid-sweep and shrinks the
	// candidate set (which would turn exact-fit placements into fallbacks).
	beat := func() {
		for _, sc := range srvConns {
			if _, _, err := sc.Call(context.Background(), proto.MtHeartbeat, nil); err != nil {
				t.Fatalf("heartbeat: %v", err)
			}
		}
	}

	regionStatus := func(name string) proto.RegionStatus {
		resp, _, err := conn.Call(context.Background(), proto.MtRegionStatus, nil)
		if err != nil {
			t.Fatalf("region status: %v", err)
		}
		d := rpc.NewDecoder(resp)
		n := d.U32()
		for i := uint32(0); i < n; i++ {
			st := proto.DecodeRegionStatus(d)
			if st.Info.Name == name {
				return st
			}
		}
		t.Fatalf("region %q missing from status", name)
		return proto.RegionStatus{}
	}

	for width := 1; width <= 3; width++ {
		for replicas := 0; replicas <= 2; replicas++ {
			name := fmt.Sprintf("prop/w%d-r%d", width, replicas)
			beat()
			pre := h.m.Telemetry().Snapshot().Counter("master.placement_degraded")
			info, err := h.alloc(conn, proto.AllocRequest{
				Name: name, Size: 96 << 10, StripeUnit: 16 << 10,
				StripeWidth: width, Replicas: replicas,
			})
			if err != nil {
				t.Fatalf("alloc %s: %v", name, err)
			}
			copies := info.Copies()
			if len(copies) != replicas+1 {
				t.Fatalf("%s: %d copies, want %d", name, len(copies), replicas+1)
			}
			overlap := false
			used := make(map[simnet.NodeID]int)
			for ci, xs := range copies {
				for _, x := range xs {
					if prev, ok := used[x.Server]; ok && prev != ci {
						overlap = true
					}
					used[x.Server] = ci
				}
			}
			delta := h.m.Telemetry().Snapshot().Counter("master.placement_degraded") - pre
			fitsDisjoint := (replicas+1)*width <= servers
			st := regionStatus(name)
			anyFlagged := false
			for _, cs := range st.Copies {
				anyFlagged = anyFlagged || cs.PlacementDegraded
			}
			if fitsDisjoint {
				if overlap {
					t.Errorf("%s: copies overlap although %d disjoint nodes were available", name, servers)
				}
				if delta != 0 {
					t.Errorf("%s: placement_degraded moved by %d on a disjoint placement", name, delta)
				}
				if anyFlagged {
					t.Errorf("%s: PlacementDegraded flagged on a disjoint placement", name)
				}
			} else {
				if delta <= 0 {
					t.Errorf("%s: fallback placement not recorded in placement_degraded", name)
				}
				if !anyFlagged {
					t.Errorf("%s: fallback placement not flagged in region status", name)
				}
			}
		}
	}
}

// TestSpuriousDeathAbsolvedOnHeartbeat: a server that misses heartbeats is
// presumed dead and the sweep dirties its copies — but when the same
// incarnation beats again without re-registering, the arena is intact, so
// the provisional dirtiness and even a latched Lost verdict must lift
// without any repair traffic (generation untouched). Dirtiness with a
// confirmed cause (a degraded-write report) must survive the absolution.
func TestSpuriousDeathAbsolvedOnHeartbeat(t *testing.T) {
	h := newHarness(t, 3)
	conn := h.dial(1)
	srv := map[simnet.NodeID]*rpc.Conn{}
	for n := simnet.NodeID(1); n <= 2; n++ {
		c := h.dial(n)
		h.registerServer(c, 1<<20, uint32(10*n))
		srv[n] = c
	}
	if _, err := h.alloc(conn, proto.AllocRequest{
		Name: "flap", Size: 64 << 10, StripeUnit: 16 << 10,
		StripeWidth: 1, Replicas: 1,
	}); err != nil {
		t.Fatalf("alloc: %v", err)
	}

	beat := func(n simnet.NodeID) {
		if _, _, err := srv[n].Call(context.Background(), proto.MtHeartbeat, nil); err != nil {
			t.Fatalf("heartbeat %v: %v", n, err)
		}
	}
	status := func() proto.RegionStatus {
		resp, _, err := conn.Call(context.Background(), proto.MtRegionStatus, nil)
		if err != nil {
			t.Fatalf("region status: %v", err)
		}
		d := rpc.NewDecoder(resp)
		n := d.U32()
		for i := uint32(0); i < n; i++ {
			if st := proto.DecodeRegionStatus(d); st.Info.Name == "flap" {
				return st
			}
		}
		t.Fatal(`region "flap" missing from status`)
		return proto.RegionStatus{}
	}
	waitFor := func(what string, cond func(proto.RegionStatus) bool) proto.RegionStatus {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if st := status(); cond(st) {
				return st
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s; status %+v", what, status())
		return proto.RegionStatus{}
	}

	// Starve both servers (the fakes have no beat loop): the sweep dirties
	// both copies, and with no clean source left the region latches Lost.
	st := waitFor("lost latch", func(st proto.RegionStatus) bool { return st.Lost })
	if !st.Copies[0].Dirty || !st.Copies[1].Dirty {
		t.Fatalf("expected both copies dirty while presumed dead; status %+v", st)
	}

	// The same incarnations beat again: dirtiness absolved, Lost lifted,
	// and no repair ever ran — the layout generation is untouched.
	beat(1)
	beat(2)
	st = waitFor("absolution", func(st proto.RegionStatus) bool {
		return !st.Lost && !st.Copies[0].Dirty && !st.Copies[1].Dirty
	})
	if st.Info.Generation != 0 {
		t.Errorf("generation %d after absolution, want 0 (no layout change)", st.Info.Generation)
	}

	// A degraded-write report is confirmed divergence, not a liveness
	// verdict: it must survive a starve/revive flap of the same server.
	var e rpc.Encoder
	rep := proto.DegradedReport{Name: "flap", Copy: 1}
	rep.Encode(&e)
	if _, _, err := conn.Call(context.Background(), proto.MtReportDegraded, e.Bytes()); err != nil {
		t.Fatalf("report degraded: %v", err)
	}
	waitFor("reported dirty", func(st proto.RegionStatus) bool { return st.Copies[1].Dirty })
	waitFor("second starve", func(st proto.RegionStatus) bool { return st.Copies[0].Dirty })
	beat(1)
	beat(2)
	st = waitFor("partial absolution", func(st proto.RegionStatus) bool { return !st.Copies[0].Dirty })
	if !st.Copies[1].Dirty {
		t.Error("degraded-write dirtiness was absolved by the flap; it must survive")
	}
	if st.Lost {
		t.Error("region still lost although a clean available copy exists")
	}
}

// Regression: a beat whose telemetry blob is framed correctly but truncated
// inside must still count as a liveness beat and must leave the server's
// previous snapshot exactly as it was — for the stats plane (MtStats) and
// the health plane (MtHealth) alike.
func TestTornBeatKeepsPreviousTelemetry(t *testing.T) {
	h := newHarness(t, 2)
	conn := h.dial(1)
	h.registerServer(conn, 1<<20, 11)
	ctx := context.Background()

	// A fake memory server's registry with sealed windows to lose.
	reg := telemetry.New(1)
	var now simnet.VTime
	reg.SetWindowClock(func() simnet.VTime { return now })
	reg.Counter("fake.ops").Add(7)
	reg.Histogram("fake.lat").RecordValue(5)
	now += 2 * simnet.VTime(time.Millisecond)
	good, err := reg.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	beat := func(blob []byte) {
		t.Helper()
		var e rpc.Encoder
		e.Bytes32(blob)
		if _, _, err := conn.Call(ctx, proto.MtHeartbeat, e.Bytes()); err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
	}
	// planes reads the server's snapshot back through MtStats (re-encoded:
	// equal snapshots encode to equal bytes) and the cluster's merged
	// telemetry through MtHealth.
	planes := func() ([]byte, telemetry.Snapshot) {
		t.Helper()
		resp, _, err := conn.Call(ctx, proto.MtStats, nil)
		if err != nil {
			t.Fatalf("MtStats: %v", err)
		}
		d := rpc.NewDecoder(resp)
		var server []byte
		for i, n := 0, int(d.U32()); i < n; i++ {
			ns, err := proto.DecodeNodeStats(d)
			if err != nil {
				t.Fatalf("decode stats: %v", err)
			}
			if ns.Role == "memserver" && ns.Node == 1 {
				if server, err = ns.Stats.MarshalBinary(); err != nil {
					t.Fatal(err)
				}
			}
		}
		resp, _, err = conn.Call(ctx, proto.MtHealth, nil)
		if err != nil {
			t.Fatalf("MtHealth: %v", err)
		}
		report, err := proto.DecodeHealthReport(rpc.NewDecoder(resp))
		if err != nil {
			t.Fatalf("decode health: %v", err)
		}
		return server, report.Windows
	}

	beat(good)
	stats, merged := planes()
	if !bytes.Equal(stats, good) {
		t.Fatalf("MtStats serves %d B for the server, the beat carried %d B", len(stats), len(good))
	}
	if merged.CounterDelta("fake.ops", 0) != 7 || merged.HistogramWindow("fake.lat", 0).Count != 1 {
		t.Fatalf("MtHealth after the good beat: ops delta %d, lat windows %+v",
			merged.CounterDelta("fake.ops", 0), merged.HistogramWindows["fake.lat"])
	}

	// Go silent until the sweep declares the server dead, then send the
	// torn beat: it must revive the server like any liveness beat.
	deadline := time.Now().Add(2 * time.Second)
	for len(h.m.AliveServers()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never marked dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
	beat(good[:len(good)/2])
	if got := h.m.AliveServers(); len(got) != 1 {
		t.Fatalf("alive after torn beat = %v, want the server revived", got)
	}
	stats, merged = planes()
	if !bytes.Equal(stats, good) {
		t.Fatalf("torn beat changed the server's snapshot: MtStats serves %d B, want the previous %d B unchanged", len(stats), len(good))
	}
	if merged.CounterDelta("fake.ops", 0) != 7 || merged.HistogramWindow("fake.lat", 0).Count != 1 {
		t.Fatalf("torn beat emptied the server's windows: ops delta %d, lat windows %+v",
			merged.CounterDelta("fake.ops", 0), merged.HistogramWindows["fake.lat"])
	}
}
