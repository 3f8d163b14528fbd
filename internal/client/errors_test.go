package client

import (
	"context"
	"errors"
	"testing"
	"time"

	"rstore/internal/master"
	"rstore/internal/memserver"
	"rstore/internal/proto"
	"rstore/internal/rdma"
	"rstore/internal/simnet"
)

// testCluster boots a minimal cluster — master on node 0, memory servers on
// nodes 1..servers — and returns the fabric plus a connected client on the
// last node.
func testCluster(t *testing.T, servers int) (*simnet.Fabric, *Client) {
	t.Helper()
	f, _, cli := testClusterWith(t, servers, master.Config{})
	return f, cli
}

// testClusterWith is testCluster with the master's configuration (beyond
// the heartbeat interval) in the caller's hands, and the master returned.
func testClusterWith(t *testing.T, servers int, mcfg master.Config) (*simnet.Fabric, *master.Master, *Client) {
	t.Helper()
	f := simnet.NewFabric(servers+2, simnet.DefaultParams())
	n := rdma.NewNetwork(f)
	ctx := context.Background()

	md, err := n.OpenDevice(0)
	if err != nil {
		t.Fatalf("OpenDevice master: %v", err)
	}
	mcfg.HeartbeatInterval = 20 * time.Millisecond
	m, err := master.Start(md, mcfg)
	if err != nil {
		t.Fatalf("master.Start: %v", err)
	}
	t.Cleanup(m.Close)

	for i := 1; i <= servers; i++ {
		dev, err := n.OpenDevice(simnet.NodeID(i))
		if err != nil {
			t.Fatalf("OpenDevice server %d: %v", i, err)
		}
		srv, err := memserver.Start(ctx, dev, memserver.Config{
			Capacity:          8 << 20,
			Master:            0,
			HeartbeatInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("memserver.Start %d: %v", i, err)
		}
		t.Cleanup(srv.Close)
	}

	cd, err := n.OpenDevice(simnet.NodeID(servers + 1))
	if err != nil {
		t.Fatalf("OpenDevice client: %v", err)
	}
	cli, err := Connect(ctx, cd, Config{
		Master: 0,
		Retry: RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			MaxDelay:    5 * time.Millisecond,
			Seed:        1,
		},
	})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	t.Cleanup(cli.Close)
	return f, m, cli
}

func TestRegionOutOfRangeAndAtomicStraddle(t *testing.T) {
	_, cli := testCluster(t, 2)
	ctx := context.Background()
	reg, err := cli.AllocMap(ctx, "ranges", 2<<20, AllocOptions{StripeUnit: 1 << 20})
	if err != nil {
		t.Fatalf("AllocMap: %v", err)
	}
	buf, err := cli.AllocBuf(4096)
	if err != nil {
		t.Fatalf("AllocBuf: %v", err)
	}

	if _, err := reg.WriteAt(ctx, 2<<20, buf, 0, 1); !errors.Is(err, proto.ErrBadRange) {
		t.Errorf("write past end = %v, want ErrBadRange", err)
	}
	if _, err := reg.ReadAt(ctx, (2<<20)-1, buf, 0, 2); !errors.Is(err, proto.ErrBadRange) {
		t.Errorf("read across end = %v, want ErrBadRange", err)
	}
	// An 8-byte atomic straddling the stripe boundary cannot be served by a
	// single one-sided operation.
	if _, _, err := reg.FetchAdd(ctx, (1<<20)-4, 1); !errors.Is(err, proto.ErrBadRange) {
		t.Errorf("straddling atomic = %v, want ErrBadRange", err)
	}
	// Aligned atomics on either side of the boundary work.
	if _, _, err := reg.FetchAdd(ctx, (1<<20)-8, 1); err != nil {
		t.Errorf("aligned atomic: %v", err)
	}
}

func TestRegionOpsAfterUnmap(t *testing.T) {
	_, cli := testCluster(t, 1)
	ctx := context.Background()
	reg, err := cli.AllocMap(ctx, "unmapped", 1<<20, AllocOptions{})
	if err != nil {
		t.Fatalf("AllocMap: %v", err)
	}
	buf, err := cli.AllocBuf(64)
	if err != nil {
		t.Fatalf("AllocBuf: %v", err)
	}
	if err := reg.Unmap(ctx); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	// Unmap is idempotent.
	if err := reg.Unmap(ctx); err != nil {
		t.Errorf("second Unmap: %v", err)
	}

	if _, err := reg.WriteAt(ctx, 0, buf, 0, 8); !errors.Is(err, ErrRegionClosed) {
		t.Errorf("WriteAt after unmap = %v, want ErrRegionClosed", err)
	}
	if _, err := reg.ReadAt(ctx, 0, buf, 0, 8); !errors.Is(err, ErrRegionClosed) {
		t.Errorf("ReadAt after unmap = %v, want ErrRegionClosed", err)
	}
	if _, _, err := reg.FetchAdd(ctx, 0, 1); !errors.Is(err, ErrRegionClosed) {
		t.Errorf("FetchAdd after unmap = %v, want ErrRegionClosed", err)
	}
	if err := reg.Remap(ctx); !errors.Is(err, ErrRegionClosed) {
		t.Errorf("Remap after unmap = %v, want ErrRegionClosed", err)
	}
	if _, _, err := reg.Subscribe(ctx); !errors.Is(err, ErrRegionClosed) {
		t.Errorf("Subscribe after unmap = %v, want ErrRegionClosed", err)
	}
	if err := reg.Notify(ctx, 1); !errors.Is(err, ErrRegionClosed) {
		t.Errorf("Notify after unmap = %v, want ErrRegionClosed", err)
	}
}

func TestWriteToKilledServerIsTyped(t *testing.T) {
	f, cli := testCluster(t, 1)
	ctx := context.Background()
	reg, err := cli.AllocMap(ctx, "doomed", 1<<20, AllocOptions{StripeWidth: 1})
	if err != nil {
		t.Fatalf("AllocMap: %v", err)
	}
	buf, err := cli.AllocBuf(4096)
	if err != nil {
		t.Fatalf("AllocBuf: %v", err)
	}
	victim := reg.Info().Servers()[0]
	if err := f.SetNodeUp(victim, false); err != nil {
		t.Fatalf("SetNodeUp: %v", err)
	}
	// The data path fails fast with the typed IO error — no retry policy, no
	// hang, per the paper's fast-path philosophy.
	if _, err := reg.WriteAt(ctx, 0, buf, 0, 4096); !errors.Is(err, ErrIOFailed) {
		t.Errorf("write to killed server = %v, want ErrIOFailed", err)
	}
}

// TestMasterUnavailableTyped: with the whole master group unreachable,
// control-plane calls fail fast — bounded by the retry budget, no hang —
// with the typed ErrMasterUnavailable sentinel, while the one-sided data
// path keeps serving off the cached layout (the master is not on it).
func TestMasterUnavailableTyped(t *testing.T) {
	f, cli := testCluster(t, 1)
	ctx := context.Background()
	reg, err := cli.AllocMap(ctx, "outage", 1<<20, AllocOptions{StripeWidth: 1})
	if err != nil {
		t.Fatalf("AllocMap: %v", err)
	}
	buf, err := cli.AllocBuf(4096)
	if err != nil {
		t.Fatalf("AllocBuf: %v", err)
	}

	if err := f.SetNodeUp(0, false); err != nil {
		t.Fatalf("SetNodeUp: %v", err)
	}

	start := time.Now()
	if _, err := cli.Alloc(ctx, "unreachable", 1<<20, AllocOptions{}); !errors.Is(err, ErrMasterUnavailable) {
		t.Errorf("Alloc with dead master = %v, want ErrMasterUnavailable", err)
	}
	if _, err := cli.ClusterInfo(ctx); !errors.Is(err, ErrMasterUnavailable) {
		t.Errorf("ClusterInfo with dead master = %v, want ErrMasterUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("control calls blocked %v; the retry budget should bound them", elapsed)
	}

	// The data path needs no master: reads and writes keep flowing.
	if _, err := reg.WriteAt(ctx, 0, buf, 0, 4096); err != nil {
		t.Errorf("WriteAt during master outage: %v", err)
	}
	if _, err := reg.ReadAt(ctx, 0, buf, 0, 4096); err != nil {
		t.Errorf("ReadAt during master outage: %v", err)
	}

	// The status probe degrades row-by-row instead of failing whole.
	sts := cli.MasterStatuses(ctx)
	if len(sts) != 1 {
		t.Fatalf("MasterStatuses rows = %d, want 1", len(sts))
	}
	if !errors.Is(sts[0].Err, ErrMasterUnavailable) {
		t.Errorf("status row err = %v, want ErrMasterUnavailable", sts[0].Err)
	}
}

// TestSubscribeAbortCleansState is the regression test for the subscribe
// handshake leak: a Subscribe that failed (dead home server, expired
// context) used to leave its ack-queue entry and channel registered, so the
// dangling ack entry stole the acknowledgement of the next subscriber.
func TestSubscribeAbortCleansState(t *testing.T) {
	f, cli := testCluster(t, 1)
	ctx := context.Background()
	reg, err := cli.AllocMap(ctx, "subs", 1<<20, AllocOptions{StripeWidth: 1})
	if err != nil {
		t.Fatalf("AllocMap: %v", err)
	}
	info := reg.Info()
	home := info.HomeServer()

	// A healthy subscribe first, so the notify connection is established and
	// the failure below exercises the handshake, not the dial.
	_, unsub, err := reg.Subscribe(ctx)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	unsub()

	if err := f.SetNodeUp(home, false); err != nil {
		t.Fatalf("SetNodeUp: %v", err)
	}
	shortCtx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, _, err := reg.Subscribe(shortCtx); err == nil {
		t.Fatal("Subscribe with dead home server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("Subscribe blocked %v past its context deadline", elapsed)
	}

	// The notify connection outlives its QP, so this is the cached one.
	nc, err := cli.notify.Get(ctx, home, cli.dialNotify)
	if err != nil {
		t.Fatalf("notify connection missing: %v", err)
	}
	nc.mu.Lock()
	subs, acks := len(nc.subs[info.ID]), len(nc.acks[info.ID])
	nc.mu.Unlock()
	if subs != 0 {
		t.Errorf("aborted subscribe left %d channels registered", subs)
	}
	if acks != 0 {
		t.Errorf("aborted subscribe left %d ack entries; the next subscriber's ack would be stolen", acks)
	}
}
