package master

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rstore/internal/proto"
	"rstore/internal/rdma"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
)

// replHarness boots a replicated master group on the low nodes of a small
// fabric. LeaseTerm is negative so candidates skip the virtual-time lease
// wait — the fake memory servers in these tests speak no MtPing.
type replHarness struct {
	t   *testing.T
	f   *simnet.Fabric
	net *rdma.Network
	ms  []*Master
}

func newReplHarness(t *testing.T, nodes, replicas int) *replHarness {
	t.Helper()
	return newReplHarnessEvery(t, nodes, replicas, 20*time.Millisecond)
}

// newReplHarnessEvery is newReplHarness with the heartbeat interval — and
// with it the election and stream-detach timeouts — chosen by the test.
func newReplHarnessEvery(t *testing.T, nodes, replicas int, interval time.Duration) *replHarness {
	t.Helper()
	f := simnet.NewFabric(nodes, simnet.DefaultParams())
	n := rdma.NewNetwork(f)
	peers := make([]simnet.NodeID, replicas)
	for i := range peers {
		peers[i] = simnet.NodeID(i)
	}
	h := &replHarness{t: t, f: f, net: n}
	for i := 0; i < replicas; i++ {
		dev, err := n.OpenDevice(simnet.NodeID(i))
		if err != nil {
			t.Fatalf("OpenDevice(%d): %v", i, err)
		}
		m, err := Start(dev, Config{
			HeartbeatInterval: interval,
			Peers:             peers,
			LeaseTerm:         -1,
		})
		if err != nil {
			t.Fatalf("Start master %d: %v", i, err)
		}
		t.Cleanup(m.Close)
		h.ms = append(h.ms, m)
	}
	return h
}

func (h *replHarness) dial(from, to simnet.NodeID) *rpc.Conn {
	h.t.Helper()
	dev, err := h.net.OpenDevice(from)
	if err != nil {
		h.t.Fatalf("OpenDevice: %v", err)
	}
	conn, err := rpc.Dial(context.Background(), dev, to, proto.MasterService, nil, rpc.Options{})
	if err != nil {
		h.t.Fatalf("Dial %v->%v: %v", from, to, err)
	}
	h.t.Cleanup(conn.Close)
	return conn
}

func (h *replHarness) waitRole(m *Master, want string, minEpoch uint64) {
	h.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		role, epoch, _ := m.Status()
		if role == want && epoch >= minEpoch {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	role, epoch, leader := m.Status()
	h.t.Fatalf("master %v stuck at %s@%d (leader %v), want %s@>=%d",
		m.Node(), role, epoch, leader, want, minEpoch)
}

// waitAttached blocks until every standby is an attached follower of the
// boot primary: from then on a committed record is a replicated one (with
// no follower attached the group degrades to immediate commit).
func (h *replHarness) waitAttached() {
	h.t.Helper()
	r := &h.ms[0].repl
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		r.mu.Lock()
		n := len(r.followers)
		r.mu.Unlock()
		if n == len(h.ms)-1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.t.Fatal("standbys never attached to the boot primary")
}

func regionStatusOf(t *testing.T, conn *rpc.Conn, name string) (proto.RegionStatus, bool) {
	t.Helper()
	resp, _, err := conn.Call(context.Background(), proto.MtRegionStatus, nil)
	if err != nil {
		t.Fatalf("region status: %v", err)
	}
	d := rpc.NewDecoder(resp)
	n := d.U32()
	for i := uint32(0); i < n; i++ {
		if st := proto.DecodeRegionStatus(d); st.Info.Name == name {
			return st, true
		}
	}
	return proto.RegionStatus{}, false
}

// TestFailoverPromotesStandbyAndFencesOldPrimary: the boot primary streams
// its metadata log to the standby; when the primary's node drops off the
// fabric, the standby waits out the silence, promotes itself at a bumped
// epoch, and serves the replicated metadata. When the old primary's node
// comes back, the first contact with the higher-epoch group steps it down,
// and client-facing RPCs against it redirect with a not-primary error.
//
// It also extends TestSpuriousDeathAbsolvedOnHeartbeat across a failover:
// servers presumed dead by the OLD primary (provisional dirtiness and even
// a latched Lost verdict, all replicated) beat the NEW primary with the
// same incarnation — the absolution must lift everything with the layout
// generation untouched, because the arenas were intact all along.
func TestFailoverPromotesStandbyAndFencesOldPrimary(t *testing.T) {
	h := newReplHarness(t, 5, 2)
	a, b := h.ms[0], h.ms[1]

	cli := h.dial(4, 0)
	srvConn := map[simnet.NodeID]*rpc.Conn{}
	for n := simnet.NodeID(2); n <= 3; n++ {
		c := h.dial(n, 0)
		var e rpc.Encoder
		e.U64(1 << 20)
		e.U32(uint32(10 * n))
		if _, _, err := c.Call(context.Background(), proto.MtRegisterServer, e.Bytes()); err != nil {
			t.Fatalf("register server %v: %v", n, err)
		}
		srvConn[n] = c
	}

	var e rpc.Encoder
	(&proto.AllocRequest{
		Name: "flap", Size: 64 << 10, StripeUnit: 16 << 10,
		StripeWidth: 1, Replicas: 1,
	}).Encode(&e)
	resp, _, err := cli.Call(context.Background(), proto.MtAlloc, e.Bytes())
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	d := rpc.NewDecoder(resp)
	info := proto.DecodeRegionInfo(d)
	if derr := d.Err(); derr != nil {
		t.Fatalf("decode alloc: %v", derr)
	}

	// Starve the fake servers' heartbeats until the primary's sweep latches
	// the region Lost — provisional dirtiness on both copies, replicated to
	// the standby as it happens.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, ok := regionStatusOf(t, cli, "flap")
		if ok && st.Lost && st.Copies[0].Dirty && st.Copies[1].Dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lost latch never reached; status %+v (found=%v)", st, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill the primary's node. The standby notices the silent stream and
	// takes over at a bumped epoch.
	if err := h.f.SetNodeUp(0, false); err != nil {
		t.Fatalf("kill node 0: %v", err)
	}
	h.waitRole(b, "primary", 1)

	// The replicated metadata survived the failover: same region, same
	// identity, still latched Lost with both copies dirty.
	cliB := h.dial(4, 1)
	st, ok := regionStatusOf(t, cliB, "flap")
	if !ok {
		t.Fatal("region missing on promoted standby")
	}
	if st.Info.ID != info.ID || st.Info.Size != info.Size {
		t.Fatalf("promoted standby serves different region identity: %+v vs %+v", st.Info, info)
	}
	if !st.Lost || !st.Copies[0].Dirty || !st.Copies[1].Dirty {
		t.Fatalf("replicated dirty/lost state missing after promotion: %+v", st)
	}

	// Same-incarnation heartbeats reach the freshly promoted primary: the
	// provisional dirtiness and the Lost latch lift without any repair —
	// the layout generation stays 0.
	for n := simnet.NodeID(2); n <= 3; n++ {
		c := h.dial(n, 1)
		if _, _, err := c.Call(context.Background(), proto.MtHeartbeat, nil); err != nil {
			t.Fatalf("heartbeat %v at new primary: %v", n, err)
		}
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		st, ok = regionStatusOf(t, cliB, "flap")
		if ok && !st.Lost && !st.Copies[0].Dirty && !st.Copies[1].Dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("absolution never reached on new primary; status %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Info.Generation != 0 {
		t.Errorf("generation %d after absolution, want 0 (no layout change)", st.Info.Generation)
	}

	// The old primary comes back partitioned in time, not space: its first
	// replication contact with the higher-epoch group must step it down.
	if err := h.f.SetNodeUp(0, true); err != nil {
		t.Fatalf("revive node 0: %v", err)
	}
	h.waitRole(a, "standby", 1)

	// And client-facing RPCs against the stale replica are fenced with a
	// redirect hint pointing at the real primary.
	cliA := h.dial(4, 0)
	var ae rpc.Encoder
	(&proto.AllocRequest{Name: "fenced", Size: 16 << 10}).Encode(&ae)
	_, _, err = cliA.Call(context.Background(), proto.MtAlloc, ae.Bytes())
	if err == nil {
		t.Fatal("stale replica accepted an alloc")
	}
	var re *rpc.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("fencing error is not a remote error: %v", err)
	}
	hint, epoch, ok := proto.IsNotPrimaryMsg(re.Msg)
	if !ok {
		t.Fatalf("fencing error lacks the not-primary marker: %v", re.Msg)
	}
	if hint != 1 {
		t.Errorf("redirect hint %v, want 1", hint)
	}
	if epoch < 1 {
		t.Errorf("fencing epoch %d, want >= 1", epoch)
	}
}

// TestAllocTokenIdempotent: a retried Alloc carrying the same nonzero
// token must return the originally created region instead of "already
// exists" — the contract a client retry relies on when its first attempt
// committed just before a failover.
func TestAllocTokenIdempotent(t *testing.T) {
	h := newHarness(t, 2)
	conn := h.dial(1)
	h.registerServer(conn, 1<<20, 7)

	req := proto.AllocRequest{Name: "idem", Size: 64 << 10, Token: 42}
	first, err := h.alloc(conn, req)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	second, err := h.alloc(conn, req)
	if err != nil {
		t.Fatalf("retried alloc with same token: %v", err)
	}
	if first.ID != second.ID || first.Size != second.Size {
		t.Fatalf("retry returned a different region: %+v vs %+v", first, second)
	}

	// A different token for the same name is a genuine conflict.
	req.Token = 43
	if _, err := h.alloc(conn, req); err == nil {
		t.Fatal("conflicting alloc with a fresh token succeeded")
	}
}

// TestReplicatedAllocVisibleOnStandbyAfterPromotion: registrations and
// allocations stream to the standby as they commit; killing the primary
// immediately after a burst of allocations must lose none of them.
func TestReplicatedAllocVisibleOnStandbyAfterPromotion(t *testing.T) {
	h := newReplHarness(t, 4, 2)
	h.waitAttached()
	b := h.ms[1]

	cli := h.dial(3, 0)
	sc := h.dial(2, 0)
	var e rpc.Encoder
	e.U64(4 << 20)
	e.U32(99)
	if _, _, err := sc.Call(context.Background(), proto.MtRegisterServer, e.Bytes()); err != nil {
		t.Fatalf("register server: %v", err)
	}

	names := []string{"a", "b", "c", "d", "e"}
	ids := map[string]proto.RegionID{}
	for _, name := range names {
		var ae rpc.Encoder
		(&proto.AllocRequest{Name: name, Size: 32 << 10}).Encode(&ae)
		resp, _, err := cli.Call(context.Background(), proto.MtAlloc, ae.Bytes())
		if err != nil {
			t.Fatalf("alloc %q: %v", name, err)
		}
		d := rpc.NewDecoder(resp)
		info := proto.DecodeRegionInfo(d)
		if derr := d.Err(); derr != nil {
			t.Fatalf("decode alloc %q: %v", name, derr)
		}
		ids[name] = info.ID
	}

	// The alloc response is the commit acknowledgment: the standby was
	// attached before the first one went out (with no follower attached the
	// group commits at once, by design), so by the time the last one returned
	// every record is acked by it. Kill the primary with no settling delay.
	if err := h.f.SetNodeUp(0, false); err != nil {
		t.Fatalf("kill node 0: %v", err)
	}
	h.waitRole(b, "primary", 1)

	cliB := h.dial(3, 1)
	resp, _, err := cliB.Call(context.Background(), proto.MtListRegions, nil)
	if err != nil {
		t.Fatalf("list regions on promoted standby: %v", err)
	}
	d := rpc.NewDecoder(resp)
	n := d.U32()
	got := map[string]proto.RegionID{}
	for i := uint32(0); i < n; i++ {
		name := d.String()
		id := proto.RegionID(d.U64())
		d.U64() // size
		d.U32() // map count
		got[name] = id
	}
	if derr := d.Err(); derr != nil {
		t.Fatalf("decode list: %v", derr)
	}
	for _, name := range names {
		if got[name] != ids[name] {
			t.Errorf("region %q: id %v on standby, want %v", name, got[name], ids[name])
		}
	}
}

// TestFailedReplicatedAllocKeepsRegionIDsInSync: an allocation that fails
// while placing its replica commits nothing, so it must not consume a
// region ID on the primary alone — the next successful allocation gets the
// same ID whether the primary that saw the failure or a promoted standby
// that never heard of it serves it.
func TestFailedReplicatedAllocKeepsRegionIDsInSync(t *testing.T) {
	nextID := func(failover bool) proto.RegionID {
		h := newReplHarness(t, 4, 2)
		h.waitAttached()
		call := func(conn *rpc.Conn, mt uint16, payload []byte) ([]byte, error) {
			resp, _, err := conn.Call(context.Background(), mt, payload)
			return resp, err
		}
		alloc := func(master simnet.NodeID, req proto.AllocRequest) (*proto.RegionInfo, error) {
			// The fake server has no beat loop; beat it so the sweep does not
			// declare it dead under the allocation.
			if _, err := call(h.dial(2, master), proto.MtHeartbeat, nil); err != nil {
				t.Fatalf("heartbeat at master %v: %v", master, err)
			}
			var e rpc.Encoder
			req.Encode(&e)
			resp, err := call(h.dial(3, master), proto.MtAlloc, e.Bytes())
			if err != nil {
				return nil, err
			}
			d := rpc.NewDecoder(resp)
			info := proto.DecodeRegionInfo(d)
			if derr := d.Err(); derr != nil {
				t.Fatalf("decode alloc: %v", derr)
			}
			return info, nil
		}

		var e rpc.Encoder
		e.U64(1 << 20)
		e.U32(7)
		if _, err := call(h.dial(2, 0), proto.MtRegisterServer, e.Bytes()); err != nil {
			t.Fatalf("register server: %v", err)
		}
		// The primary copy fits the lone 1 MiB server; the replica, falling
		// back onto the same server, does not.
		if _, err := alloc(0, proto.AllocRequest{Name: "too-big", Size: 700 << 10, StripeUnit: 4096, Replicas: 1}); err == nil {
			t.Fatal("replicated alloc beyond capacity succeeded")
		}
		master := simnet.NodeID(0)
		if failover {
			if err := h.f.SetNodeUp(0, false); err != nil {
				t.Fatalf("kill node 0: %v", err)
			}
			h.waitRole(h.ms[1], "primary", 1)
			master = 1
		}
		info, err := alloc(master, proto.AllocRequest{Name: "next", Size: 64 << 10, StripeUnit: 4096})
		if err != nil {
			t.Fatalf("alloc after the failed one (failover=%v): %v", failover, err)
		}
		return info.ID
	}
	stayed, failedOver := nextID(false), nextID(true)
	if stayed != failedOver {
		t.Errorf("region ID after a failed replicated alloc: %v on the primary that saw it, %v on the promoted standby", stayed, failedOver)
	}
}

// parkInjector holds every transfer from one node to another until the gate
// opens; everything else passes.
type parkInjector struct {
	from, to simnet.NodeID
	gate     chan struct{}
}

func (p *parkInjector) Transfer(from, to simnet.NodeID, _ int, _ simnet.VTime) (time.Duration, error) {
	if from == p.from && to == p.to {
		<-p.gate
	}
	return 0, nil
}

func (p *parkInjector) Advance(simnet.VTime) {}

// TestPrimaryReadWaitsForTheLogTail pins the read rule: a response may only
// carry state every attached standby has. The sweep commits a death verdict
// while primary→standby transfers are parked — no handler appended it, so
// no handler's own records cover it — and a cluster-info read arriving then
// must not answer until the standby has acked the verdict (or, second run,
// has been detached); if the primary steps down first (third run) the read
// is redirected instead. A plain liveness beat, which reveals nothing,
// answers at once behind the same parked stream.
func TestPrimaryReadWaitsForTheLogTail(t *testing.T) {
	for _, release := range []string{"ack", "detach", "step-down"} {
		t.Run(release, func(t *testing.T) {
			// 100 ms beats: the standby stays put through 300 ms of silence
			// and the streamer gives up on a parked append after 500 ms.
			h := newReplHarnessEvery(t, 5, 2, 100*time.Millisecond)
			h.waitAttached()
			a, b := h.ms[0], h.ms[1]
			ctx := context.Background()
			var e rpc.Encoder
			e.U64(1 << 20)
			e.U32(7)
			doomed, beating := h.dial(2, 0), h.dial(3, 0)
			if _, _, err := doomed.Call(ctx, proto.MtRegisterServer, e.Bytes()); err != nil {
				t.Fatalf("register server 2: %v", err)
			}
			time.Sleep(time.Millisecond)
			cut := time.Now() // server 2 last beat before it, server 3 after
			if _, _, err := beating.Call(ctx, proto.MtRegisterServer, e.Bytes()); err != nil {
				t.Fatalf("register server 3: %v", err)
			}

			park := &parkInjector{from: 0, to: 1, gate: make(chan struct{})}
			var once sync.Once
			unpark := func() { once.Do(func() { close(park.gate) }) }
			t.Cleanup(unpark)
			h.f.SetInjector(park)
			parked := time.Now()

			// The sweep, by hand so that the test owns its timing.
			a.mu.Lock()
			err := a.sweepLocked(cut)
			a.mu.Unlock()
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			if a.ServerAlive(2) || !a.ServerAlive(3) || !b.ServerAlive(2) {
				t.Fatalf("after the parked sweep: server 2 alive=%v, server 3 alive=%v on the primary, server 2 alive=%v on the standby; want false, true, true",
					a.ServerAlive(2), a.ServerAlive(3), b.ServerAlive(2))
			}

			if _, _, err := beating.Call(ctx, proto.MtHeartbeat, nil); err != nil {
				t.Fatalf("liveness beat behind a parked stream: %v", err)
			}

			type reply struct {
				infos []proto.ServerInfo
				err   error
			}
			answered := make(chan reply, 1)
			go func() {
				resp, _, err := h.dial(4, 0).Call(ctx, proto.MtClusterInfo, nil)
				var r reply
				if r.err = err; err == nil {
					d := rpc.NewDecoder(resp)
					for n := d.U32(); n > 0 && d.Err() == nil; n-- {
						r.infos = append(r.infos, proto.DecodeServerInfo(d))
					}
					r.err = d.Err()
				}
				answered <- r
			}()
			select {
			case r := <-answered:
				t.Fatalf("read answered %+v (err %v) while the standby still believes server 2 alive", r.infos, r.err)
			case <-time.After(50 * time.Millisecond):
			}

			switch release {
			case "ack":
				unpark()
			case "detach":
				if err := h.f.SetNodeUp(1, false); err != nil {
					t.Fatalf("kill standby: %v", err)
				}
			case "step-down":
				a.mu.Lock()
				a.stepDownLocked(1, 1)
				a.mu.Unlock()
			}
			r := <-answered
			if release == "step-down" {
				var re *rpc.RemoteError
				if !errors.As(r.err, &re) {
					t.Fatalf("read across a step-down = %+v, %v; want a redirect", r.infos, r.err)
				}
				if hint, _, ok := proto.IsNotPrimaryMsg(re.Msg); !ok || hint != 1 {
					t.Fatalf("read across a step-down: %q, want not-primary with hint 1", re.Msg)
				}
				return
			}
			if r.err != nil {
				t.Fatalf("cluster info: %v", r.err)
			}
			for _, si := range r.infos {
				if si.Node == 2 && si.Alive {
					t.Errorf("read does not show the sweep's verdict: %+v", r.infos)
				}
			}
			if release == "ack" && b.ServerAlive(2) {
				t.Error("read answered before the standby applied the verdict")
			}
			// Detached means the streamer's parked append ran into its
			// deadline, five intervals after it was sent — not earlier.
			if waited := time.Since(parked); release == "detach" && (waited < 400*time.Millisecond || !b.ServerAlive(2)) {
				t.Errorf("read answered after %v, standby applied the verdict: %v; want the streamer's timeout and false", waited, !b.ServerAlive(2))
			}
		})
	}
}
