package integration

import (
	"context"
	"testing"
	"time"

	"rstore/internal/client"
	"rstore/internal/simnet"
)

// Scenario 6: the observability plane under chaos. Every failure-handling
// mechanism the earlier scenarios exercise must leave a visible trail in
// the telemetry registries: NIC retransmissions under transient drops,
// client control-plane retries under a master partition, and the master's
// dead-server transition after a kill — surfaced both in-process and
// through the MtStats RPC a remote operator would use.
func TestChaosFailureCountersMove(t *testing.T) {
	c := startCluster(t, 3, 1)
	ctx := context.Background()
	clientNode := simnet.NodeID(c.Fabric().Size() - 1)
	cli := newChaosClient(t, c, clientNode)

	reg, err := cli.AllocMap(ctx, "counters", 2<<20, client.AllocOptions{StripeWidth: 1})
	if err != nil {
		t.Fatalf("AllocMap: %v", err)
	}
	victim := reg.Info().Servers()[0]

	chaos := simnet.NewChaos(c.Fabric(), chaosSeed)
	defer chaos.Detach()

	// Phase 1 — transient drops on the data path. The modeled NIC
	// retransmits; the application sees nothing, the counter must.
	snap := cli.Telemetry().Snapshot()
	if n := snap.Counter("rdma.retransmits"); n != 0 {
		t.Logf("pre-existing retransmits: %d", n)
	}
	chaos.SetPairDropRate(clientNode, victim, 0.15)
	payload := make([]byte, 64<<10)
	for i := 0; i < 10; i++ {
		if err := reg.Write(ctx, 0, payload); err != nil {
			t.Fatalf("write %d under loss: %v", i, err)
		}
	}
	chaos.SetPairDropRate(clientNode, victim, 0)
	after := cli.Telemetry().Snapshot()
	if got := after.Counter("rdma.retransmits") - snap.Counter("rdma.retransmits"); got <= 0 {
		t.Errorf("rdma.retransmits did not move under 15%% loss (delta %d)", got)
	}

	// Phase 2 — partition the client from the master mid-call. The retry
	// policy backs off and re-dials until the heal; both counters move.
	preRetries := after.Counter("client.retries")
	chaos.Partition(clientNode, 0)
	heal := time.AfterFunc(100*time.Millisecond, func() { chaos.Heal(clientNode, 0) })
	defer heal.Stop()
	if _, err := cli.ListRegions(ctx); err != nil {
		// A typed failure is acceptable (the budget may expire before the
		// heal); the heal below still lands before phase 3.
		if !typedFailure(err) {
			t.Fatalf("ListRegions under partition: untyped error %v", err)
		}
		heal.Stop()
		chaos.Heal(clientNode, 0)
	}
	postPartition := cli.Telemetry().Snapshot()
	if got := postPartition.Counter("client.retries") - preRetries; got <= 0 {
		t.Errorf("client.retries did not move across a partition (delta %d)", got)
	}

	// Phase 3 — kill the server and let the master declare it dead.
	if err := chaos.KillNode(victim); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	if err := c.WaitServerDead(victim, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.Master().Telemetry().Snapshot().Counter("master.dead_transitions"); got < 1 {
		t.Errorf("master.dead_transitions = %d after kill, want >= 1", got)
	}

	// The same trail must be visible remotely through the stats plane.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, err := cli.ClusterStats(ctx)
		if err == nil {
			var masterDead int64 = -1
			for _, ns := range stats {
				if ns.Role == "master" {
					masterDead = ns.Stats.Counter("master.dead_transitions")
				}
			}
			if masterDead >= 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("MtStats never reported the dead-server transition")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// One heartbeat feeds both observability planes: the snapshot a memory
// server piggybacks is decoded once at the master, and that one value
// answers Client.ClusterStats (the server's lifetime counters) and
// Client.ClusterHealth (its window deltas, merged cluster-wide).
func TestOneHeartbeatFeedsStatsAndHealth(t *testing.T) {
	c := startCluster(t, 3, 1)
	ctx := context.Background()
	cli := newChaosClient(t, c, simnet.NodeID(c.Fabric().Size()-1))
	reg, err := cli.AllocMap(ctx, "planes", 4<<20, client.AllocOptions{StripeWidth: 1})
	if err != nil {
		t.Fatalf("AllocMap: %v", err)
	}
	server := reg.Info().Servers()[0]
	// Enough modeled traffic to push virtual time across several window
	// buckets, so the server's next beat carries sealed windows.
	payload := make([]byte, 256<<10)
	for i := 0; i < 64; i++ {
		if err := reg.Write(ctx, 0, payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	const beats = "memserver.heartbeats"
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, err := cli.ClusterStats(ctx)
		if err != nil {
			t.Fatalf("ClusterStats: %v", err)
		}
		for _, ns := range stats {
			if ns.Role != "memserver" || ns.Node != server {
				continue
			}
			total, delta := ns.Stats.Counter(beats), ns.Stats.CounterDelta(beats, 0)
			if delta == 0 {
				break // no sealed window on a beat yet
			}
			// The same decoded snapshot carries both forms, and a lifetime
			// total is never behind the sum of its windows.
			if total < delta {
				t.Fatalf("node %v: lifetime %s = %d < windowed delta %d", server, beats, total, delta)
			}
			report, err := cli.ClusterHealth(ctx)
			if err != nil {
				t.Fatalf("ClusterHealth: %v", err)
			}
			if got := report.Windows.CounterDelta(beats, 0); got < delta {
				t.Fatalf("health plane shows %s delta %d, the server's own beat carried %d", beats, got, delta)
			}
			if got := report.Windows.Counter(beats); got < total {
				t.Fatalf("health plane shows lifetime %s = %d, the server alone reported %d", beats, got, total)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat carried windowed telemetry to the stats plane")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
