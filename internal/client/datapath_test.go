package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rstore/internal/master"
	"rstore/internal/proto"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// counterDeltas returns a func reporting how far a client counter has moved
// since the call.
func counterDeltas(cli *Client) func(name string) int64 {
	pre := cli.Telemetry().Snapshot()
	return func(name string) int64 {
		return cli.Telemetry().Snapshot().Counter(name) - pre.Counter(name)
	}
}

// dirtyCopies returns the master's dirty copy indices for the named region.
func dirtyCopies(t *testing.T, cli *Client, name string) []int {
	t.Helper()
	sts, err := cli.RegionStatuses(context.Background())
	if err != nil {
		t.Fatalf("RegionStatuses: %v", err)
	}
	for _, st := range sts {
		if st.Info.Name != name {
			continue
		}
		var dirty []int
		for ci, cs := range st.Copies {
			if cs.Dirty {
				dirty = append(dirty, ci)
			}
		}
		return dirty
	}
	t.Fatalf("region %q not in the master's table", name)
	return nil
}

// stall is a fault injector that parks every transfer from one node to
// another while held — the wire goes quiet without failing, which is what a
// caller's deadline races against. While held it also signals acked when a
// transfer from the watch node reaches the same sender, i.e. when another
// copy's acknowledgement is on its way back.
type stall struct {
	from, to, watch simnet.NodeID
	acked           chan struct{} // buffered 1

	mu   sync.Mutex
	gate chan struct{}
}

func (s *stall) hold() {
	s.release()
	s.mu.Lock()
	s.gate = make(chan struct{})
	s.mu.Unlock()
}

func (s *stall) release() {
	s.mu.Lock()
	if s.gate != nil {
		close(s.gate)
		s.gate = nil
	}
	s.mu.Unlock()
}

func (s *stall) Transfer(from, to simnet.NodeID, _ int, _ simnet.VTime) (time.Duration, error) {
	s.mu.Lock()
	gate := s.gate
	s.mu.Unlock()
	if gate == nil {
		return 0, nil
	}
	switch {
	case from == s.from && to == s.to:
		<-gate
	case from == s.watch && to == s.from:
		select {
		case s.acked <- struct{}{}:
		default:
		}
	}
	return 0, nil
}

func (s *stall) Advance(simnet.VTime) {}

// A ctx that expires while an operation is in flight says nothing about any
// copy. The per-copy futures this pins the fix for waited copy after copy,
// so a cancelled Wait could blame the stalled primary with the ctx error and
// then see the replica done: degraded_writes moved and the master was told
// to repair a copy that was about to land. Likewise a deadline on a primary
// read walked the replica loop.
func TestCtxExpiryBlamesNoCopy(t *testing.T) {
	f, m, cli := testClusterWith(t, 2, master.Config{})
	ctx := context.Background()
	reg, err := cli.AllocMap(ctx, "ctx-expiry", 64<<10, AllocOptions{StripeWidth: 1, Replicas: 1})
	if err != nil {
		t.Fatalf("AllocMap: %v", err)
	}
	buf, err := cli.AllocBuf(4096)
	if err != nil {
		t.Fatalf("AllocBuf: %v", err)
	}
	info := reg.Info()
	st := &stall{
		from:  cli.Node(),
		to:    info.Extents[0].Server,
		watch: info.Replicas[0][0].Server,
		acked: make(chan struct{}, 1),
	}
	f.SetInjector(st)
	t.Cleanup(func() {
		st.release()
		f.SetInjector(nil)
	})

	t.Run("cancel mid replicated write", func(t *testing.T) {
		const rounds = 20
		delta := counterDeltas(cli)
		for i := 0; i < rounds; i++ {
			st.hold()
			p, err := reg.StartWriteAt(ctx, 0, buf, 0, 4096)
			if err != nil {
				t.Fatalf("StartWriteAt: %v", err)
			}
			<-st.acked                   // the replica's ack is on the wire
			time.Sleep(time.Millisecond) // and its completion has reached the future
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			if _, err := p.Wait(cctx); !errors.Is(err, context.Canceled) || !errors.Is(err, ErrIOFailed) {
				t.Errorf("Wait = %v, want ErrIOFailed wrapping context.Canceled", err)
			}
			st.release()
			// A healthy write queues behind the released one on the same QPs,
			// so rounds do not pile up.
			if _, err := reg.WriteAt(ctx, 0, buf, 0, 4096); err != nil {
				t.Fatalf("WriteAt after release: %v", err)
			}
		}
		if d := delta("client.degraded_writes"); d != 0 {
			t.Errorf("degraded_writes moved by %d; no copy failed", d)
		}
		if d := delta("client.read_failovers"); d != 0 {
			t.Errorf("read_failovers moved by %d", d)
		}
		if d := delta("client.io_failures"); d != rounds {
			t.Errorf("io_failures moved by %d, want one per cancelled Wait (%d)", d, rounds)
		}
		if n := m.Telemetry().Snapshot().Counter("master.degraded_reports"); n != 0 {
			t.Errorf("master received %d degraded reports; no copy failed", n)
		}
		if dirty := dirtyCopies(t, cli, info.Name); len(dirty) != 0 {
			t.Errorf("copies %v marked dirty; no copy failed", dirty)
		}
	})

	t.Run("deadline on primary read", func(t *testing.T) {
		delta := counterDeltas(cli)
		st.hold()
		dctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
		defer cancel()
		_, err := reg.ReadAt(dctx, 0, buf, 0, 4096)
		st.release()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("ReadAt = %v, want the ctx error", err)
		}
		if d := delta("client.read_failovers"); d != 0 {
			t.Errorf("read_failovers moved by %d; a deadline is not a reason to fail over", d)
		}
		if d := delta("client.io_failures"); d != 1 {
			t.Errorf("io_failures moved by %d, want 1", d)
		}
		if d := delta("client.remaps"); d != 0 {
			t.Errorf("remaps moved by %d; a deadline is not a reason to remap", d)
		}
	})
}

// Every subset of an RF=3 region's copies made unreachable from the client
// (the servers stay alive for the master): the write lands on the rest, the
// read is served by the first reachable copy in copy order, and the
// telemetry says exactly which copies missed.
func TestEverySubsetOfCopiesFailing(t *testing.T) {
	// Repairs park at their first pull, so a reported copy stays dirty for
	// the test to see.
	gate := make(chan struct{})
	f, _, cli := testClusterWith(t, 3, master.Config{RepairPullHook: func(proto.Extent) { <-gate }})
	t.Cleanup(func() { close(gate) }) // runs before the master's Close
	ctx := context.Background()
	chaos := simnet.NewChaos(f, 1)
	tracer := cli.Telemetry().Tracer()
	tracer.SetSampling(1)
	buf, err := cli.AllocBuf(4096)
	if err != nil {
		t.Fatalf("AllocBuf: %v", err)
	}

	for mask := 0; mask < 8; mask++ {
		mask := mask
		t.Run(fmt.Sprintf("unreachable=%03b", mask), func(t *testing.T) {
			name := fmt.Sprintf("rf3/%d", mask)
			reg, err := cli.AllocMap(ctx, name, 64<<10, AllocOptions{StripeWidth: 1, Replicas: 2})
			if err != nil {
				t.Fatalf("AllocMap: %v", err)
			}
			info := reg.Info()
			servers := []simnet.NodeID{info.Extents[0].Server, info.Replicas[0][0].Server, info.Replicas[1][0].Server}
			for i := range buf.Bytes() {
				buf.Bytes()[i] = byte(mask*31 + i)
			}
			if _, err := reg.WriteAt(ctx, 0, buf, 0, 4096); err != nil {
				t.Fatalf("healthy WriteAt: %v", err)
			}

			var unreachable []int
			firstOK := -1
			for ci, srv := range servers {
				if mask>>ci&1 == 1 {
					chaos.Partition(cli.Node(), srv)
					defer chaos.Heal(cli.Node(), srv)
					unreachable = append(unreachable, ci)
				} else if firstOK < 0 {
					firstOK = ci
				}
			}

			delta := counterDeltas(cli)
			st, err := reg.WriteAt(ctx, 0, buf, 0, 4096)
			if firstOK < 0 {
				if !errors.Is(err, ErrIOFailed) || errors.Is(err, ErrStaleGeneration) {
					t.Errorf("WriteAt = %v, want a bare ErrIOFailed (generation did not move)", err)
				}
				if d := delta("client.degraded_writes"); d != 0 {
					t.Errorf("degraded_writes moved by %d on a write no copy took", d)
				}
			} else {
				if err != nil {
					t.Fatalf("WriteAt with copies %v unreachable: %v", unreachable, err)
				}
				// One fragment per copy; the stat covers the complete copies
				// under the operation's one start stamp.
				if want := 3 - len(unreachable); st.Fragments != want {
					t.Errorf("Fragments = %d, want %d (complete copies only)", st.Fragments, want)
				}
				if st.PostedV >= st.DoneV {
					t.Errorf("stat %+v: want PostedV < DoneV", st)
				}
				wantDegraded := int64(0)
				if len(unreachable) > 0 {
					wantDegraded = 1
				}
				if d := delta("client.degraded_writes"); d != wantDegraded {
					t.Errorf("degraded_writes moved by %d, want %d", d, wantDegraded)
				}
				// The report is asynchronous: wait for exactly the missed
				// copies to turn dirty at the master.
				deadline := time.Now().Add(5 * time.Second)
				for {
					dirty := dirtyCopies(t, cli, name)
					if slices.Equal(dirty, unreachable) {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("dirty copies = %v, want %v", dirty, unreachable)
					}
					time.Sleep(time.Millisecond)
				}
			}

			want := append([]byte(nil), buf.Bytes()...)
			for i := range buf.Bytes() {
				buf.Bytes()[i] = 0
			}
			id, ok := tracer.NewTrace()
			if !ok {
				t.Fatal("sampling 1 must trace")
			}
			delta = counterDeltas(cli)
			_, err = reg.ReadAt(telemetry.WithTrace(ctx, id), 0, buf, 0, 4096)
			attempts := firstOK + 1
			if firstOK < 0 {
				attempts = 3
				if !errors.Is(err, ErrIOFailed) || !strings.Contains(err.Error(), "all copies failed") {
					t.Errorf("ReadAt = %v, want ErrIOFailed naming all copies", err)
				}
			} else {
				if err != nil {
					t.Fatalf("ReadAt with copies %v unreachable: %v", unreachable, err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Error("read returned wrong bytes")
				}
			}
			wantFailover := int64(0)
			if firstOK > 0 {
				wantFailover = 1
			}
			if d := delta("client.read_failovers"); d != wantFailover {
				t.Errorf("read_failovers moved by %d, want %d", d, wantFailover)
			}
			failedAttempts := int64(attempts)
			if firstOK >= 0 {
				failedAttempts--
			}
			if d := delta("client.io_failures"); d != failedAttempts {
				t.Errorf("io_failures moved by %d, want one per failed attempt (%d)", d, failedAttempts)
			}

			// Span shape: one client.read envelope per attempt, in copy order,
			// all in the caller's trace; the one that succeeded parents an
			// io.read on the copy that served the data.
			spans, _ := tracer.SpansFor(id)
			var envs []telemetry.Span
			for _, s := range spans {
				if s.Name == "client.read" {
					envs = append(envs, s)
				}
			}
			if len(envs) != attempts {
				t.Fatalf("%d client.read envelopes, want %d (one per copy tried)", len(envs), attempts)
			}
			for i, env := range envs {
				if failed := i != firstOK; failed != (env.Err != "") {
					t.Errorf("envelope %d: Err = %q, served by copy %d", i, env.Err, firstOK)
				}
			}
			if firstOK >= 0 {
				served := false
				for _, s := range spans {
					if s.Name == "io.read" && s.Parent == envs[firstOK].ID && s.Err == "" {
						served = served || s.Node == servers[firstOK]
					}
				}
				if !served {
					t.Errorf("no successful io.read on %v (copy %d) under the last envelope", servers[firstOK], firstOK)
				}
			}
		})
	}
}

// The one recovery step: only a transport failure consults the master, and a
// layout that moved buys exactly one more attempt.
func TestRecoveryStepClassifiesAndRetriesOnce(t *testing.T) {
	f, _, cli := testClusterWith(t, 2, master.Config{})
	ctx := context.Background()
	chaos := simnet.NewChaos(f, 1)
	reg, err := cli.AllocMap(ctx, "recovery", 64<<10, AllocOptions{StripeWidth: 1, Replicas: 1})
	if err != nil {
		t.Fatalf("AllocMap: %v", err)
	}
	primary := reg.Info().Extents[0].Server
	// forgeStaleLayout leaves the handle as a repair-plane re-home would: a
	// primary rkey that no longer resolves, under a generation other than the
	// master's (any difference reads as "the layout was replaced").
	forgeStaleLayout := func() {
		stale := reg.Info().Clone()
		stale.Generation++
		stale.Extents[0].RKey ^= 0x5a5a
		reg.info.Store(stale)
	}

	t.Run("terminal errors never remap", func(t *testing.T) {
		delta := counterDeltas(cli)
		if _, _, err := reg.FetchAdd(ctx, 64<<10, 1); !errors.Is(err, proto.ErrBadRange) {
			t.Errorf("FetchAdd past end = %v, want ErrBadRange", err)
		}
		if d := delta("client.remaps"); d != 0 {
			t.Errorf("a bad range cost %d remaps", d)
		}
	})

	t.Run("stale layout, retry succeeds", func(t *testing.T) {
		if _, _, err := reg.FetchAdd(ctx, 0, 5); err != nil {
			t.Fatalf("FetchAdd: %v", err)
		}
		forgeStaleLayout()
		delta := counterDeltas(cli)
		old, _, err := reg.FetchAdd(ctx, 0, 1)
		if err != nil || old != 5 {
			t.Fatalf("FetchAdd on a stale layout = %d, %v; want 5 after one transparent retry", old, err)
		}
		for name, want := range map[string]int64{
			"client.stale_generation_remaps": 1,
			"client.io_failures":             1,
			"client.atomics":                 1,
		} {
			if d := delta(name); d != want {
				t.Errorf("%s moved by %d, want %d", name, d, want)
			}
		}
	})

	t.Run("stale layout, retry fails", func(t *testing.T) {
		forgeStaleLayout()
		chaos.Partition(cli.Node(), primary)
		defer chaos.Heal(cli.Node(), primary)
		delta := counterDeltas(cli)
		_, _, err := reg.CompareSwap(ctx, 0, 6, 7)
		if !errors.Is(err, ErrStaleGeneration) {
			t.Fatalf("CompareSwap = %v, want ErrStaleGeneration", err)
		}
		if d := delta("client.remaps"); d != 1 {
			t.Errorf("remaps moved by %d, want exactly 1", d)
		}
		if d := delta("client.io_failures"); d != 2 {
			t.Errorf("io_failures moved by %d, want 2 (the attempt and its one retry)", d)
		}
	})
}

// The PR 6 deadlock shape: many goroutines each holding several atomics in
// flight before waiting on any. Atomics name their connection's scratch
// word, so nothing is borrowed from the staging pool and nothing is
// registered on the fly.
func TestConcurrentAtomicFanOutRegistersNothing(t *testing.T) {
	_, cli := testCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const (
		workers     = 16
		outstanding = 8
		rounds      = 25
	)
	reg, err := cli.AllocMap(ctx, "fanout", 64<<10, AllocOptions{StripeUnit: 4096})
	if err != nil {
		t.Fatalf("AllocMap: %v", err)
	}
	registers := cli.ControlStats().Registers

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var ps [outstanding]*AtomicPending
				for i := range ps {
					// Word i of every worker lives in stripe unit i: the
					// fan-out spreads over both servers.
					p, err := reg.StartFetchAdd(ctx, uint64(i*4096+w*8), 1)
					if err != nil {
						t.Errorf("StartFetchAdd: %v", err)
						return
					}
					ps[i] = p
				}
				for i, p := range ps {
					old, _, err := p.Wait(ctx)
					if err != nil || old != uint64(r) {
						t.Errorf("worker %d word %d round %d: old = %d, %v", w, i, r, old, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := cli.ControlStats().Registers; got != registers {
		t.Errorf("atomics registered %d memory regions on the fly", got-registers)
	}
	if got := len(cli.staging); got != cli.cfg.StagingCount {
		t.Errorf("%d of %d staging chunks in the pool after the storm", got, cli.cfg.StagingCount)
	}
}
