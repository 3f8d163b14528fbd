package simnet

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func testParams() Params {
	return Params{
		LinkBandwidth: 8e9, // 1 GB/s: 1 byte per ns, easy math
		PropDelay:     1000 * time.Nanosecond,
		LoopbackDelay: 100 * time.Nanosecond,
		MemBandwidth:  80e9,
		DiskBandwidth: 1e9,
		DiskSeek:      time.Millisecond,
	}
}

func TestSerializationTime(t *testing.T) {
	p := testParams()
	tests := []struct {
		name string
		n    int
		want time.Duration
	}{
		{"zero", 0, 0},
		{"one byte", 1, time.Nanosecond},
		{"kilobyte", 1000, 1000 * time.Nanosecond},
		{"negative clamps to zero", -5, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := p.SerializationTime(tt.n); got != tt.want {
				t.Errorf("SerializationTime(%d) = %v, want %v", tt.n, got, tt.want)
			}
		})
	}
}

func TestTransferLatency(t *testing.T) {
	f := NewFabric(2, testParams())
	end, err := f.Transfer(0, 1, 1000, 0)
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	// 1000 bytes at 1 byte/ns = 1000ns serialization + 1000ns prop = 2000ns.
	want := VTime(2000)
	if end != want {
		t.Errorf("end = %v, want %v", end, want)
	}
}

func TestTransferQueueing(t *testing.T) {
	f := NewFabric(2, testParams())
	// Two back-to-back transfers posted at the same virtual start share
	// node 0's egress line: the second queues behind the first.
	end1, err := f.Transfer(0, 1, 1000, 0)
	if err != nil {
		t.Fatalf("Transfer 1: %v", err)
	}
	end2, err := f.Transfer(0, 1, 1000, 0)
	if err != nil {
		t.Fatalf("Transfer 2: %v", err)
	}
	if end2 <= end1 {
		t.Errorf("second transfer end %v not after first %v", end2, end1)
	}
	if want := end1 + VTime(1000); end2 != want {
		t.Errorf("end2 = %v, want %v (queued one serialization later)", end2, want)
	}
}

func TestTransferDisjointLinksDoNotQueue(t *testing.T) {
	f := NewFabric(4, testParams())
	end1, err := f.Transfer(0, 1, 1000, 0)
	if err != nil {
		t.Fatalf("Transfer 0->1: %v", err)
	}
	end2, err := f.Transfer(2, 3, 1000, 0)
	if err != nil {
		t.Fatalf("Transfer 2->3: %v", err)
	}
	if end1 != end2 {
		t.Errorf("disjoint transfers should complete simultaneously: %v vs %v", end1, end2)
	}
}

func TestLoopbackTransfer(t *testing.T) {
	f := NewFabric(1, testParams())
	end, err := f.Transfer(0, 0, 800, 0)
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	want := VTime(0).Add(testParams().LoopbackDelay + testParams().MemCopyTime(800))
	if end != want {
		t.Errorf("loopback end = %v, want %v", end, want)
	}
	// Loopback must not occupy fabric links.
	st := f.Stats()[0]
	if st.Egress.Bytes != 0 || st.Ingress.Bytes != 0 {
		t.Errorf("loopback occupied links: %+v", st)
	}
}

func TestTransferToDownNode(t *testing.T) {
	f := NewFabric(2, testParams())
	if err := f.SetNodeUp(1, false); err != nil {
		t.Fatalf("SetNodeUp: %v", err)
	}
	if _, err := f.Transfer(0, 1, 10, 0); !errors.Is(err, ErrNodeDown) {
		t.Errorf("err = %v, want ErrNodeDown", err)
	}
	if err := f.SetNodeUp(1, true); err != nil {
		t.Fatalf("SetNodeUp: %v", err)
	}
	if _, err := f.Transfer(0, 1, 10, 0); err != nil {
		t.Errorf("after revive: %v", err)
	}
}

func TestTransferPartitioned(t *testing.T) {
	f := NewFabric(3, testParams())
	f.SetPartition(0, 1, true)
	if _, err := f.Transfer(0, 1, 10, 0); !errors.Is(err, ErrPartitioned) {
		t.Errorf("0->1 err = %v, want ErrPartitioned", err)
	}
	if _, err := f.Transfer(1, 0, 10, 0); !errors.Is(err, ErrPartitioned) {
		t.Errorf("1->0 err = %v, want ErrPartitioned", err)
	}
	if _, err := f.Transfer(0, 2, 10, 0); err != nil {
		t.Errorf("0->2 should be unaffected: %v", err)
	}
	f.SetPartition(0, 1, false)
	if _, err := f.Transfer(0, 1, 10, 0); err != nil {
		t.Errorf("after heal: %v", err)
	}
}

func TestUnknownNode(t *testing.T) {
	f := NewFabric(1, testParams())
	if _, err := f.Transfer(0, 5, 10, 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v, want ErrUnknownNode", err)
	}
	if _, err := f.Transfer(-1, 0, 10, 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v, want ErrUnknownNode", err)
	}
}

func TestNegativeBytes(t *testing.T) {
	f := NewFabric(2, testParams())
	if _, err := f.Transfer(0, 1, -1, 0); !errors.Is(err, ErrNegativeBytes) {
		t.Errorf("err = %v, want ErrNegativeBytes", err)
	}
}

func TestAddNode(t *testing.T) {
	f := NewFabric(1, testParams())
	id := f.AddNode()
	if id != 1 {
		t.Fatalf("AddNode id = %v, want 1", id)
	}
	if f.Size() != 2 {
		t.Fatalf("Size = %d, want 2", f.Size())
	}
	if _, err := f.Transfer(0, id, 10, 0); err != nil {
		t.Errorf("transfer to added node: %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	f := NewFabric(2, testParams())
	for i := 0; i < 5; i++ {
		if _, err := f.Transfer(0, 1, 1000, 0); err != nil {
			t.Fatalf("Transfer: %v", err)
		}
	}
	st := f.Stats()
	if got := st[0].Egress.Bytes; got != 5000 {
		t.Errorf("egress bytes = %d, want 5000", got)
	}
	if got := st[1].Ingress.Bytes; got != 5000 {
		t.Errorf("ingress bytes = %d, want 5000", got)
	}
	if got := st[0].Egress.Ops; got != 5 {
		t.Errorf("egress ops = %d, want 5", got)
	}
	if got := st[0].Egress.Busy; got != VTime(5000) {
		t.Errorf("egress busy = %v, want 5000ns", got)
	}
	f.ResetStats()
	st = f.Stats()
	if st[0].Egress.Bytes != 0 || st[0].Egress.Ops != 0 {
		t.Errorf("stats not reset: %+v", st[0])
	}
}

// TestAggregateBandwidthScales checks the property the E2 experiment relies
// on: with all-to-all transfers, modeled aggregate bandwidth grows with the
// number of machines because each node contributes an independent link.
func TestAggregateBandwidthScales(t *testing.T) {
	elapsed := func(nodes int) VTime {
		f := NewFabric(nodes, testParams())
		const size = 1 << 20
		var latest VTime
		for i := 0; i < nodes; i++ {
			src := NodeID(i)
			dst := NodeID((i + 1) % nodes)
			end, err := f.Transfer(src, dst, size, 0)
			if err != nil {
				t.Fatalf("Transfer: %v", err)
			}
			latest = maxV(latest, end)
		}
		return latest
	}
	// Same per-node volume: wall time should stay ~flat as nodes grow,
	// meaning aggregate bandwidth scales linearly.
	e2, e8 := elapsed(2), elapsed(8)
	if e8 > e2*2 {
		t.Errorf("8-node ring took %v, 2-node %v: aggregate bandwidth did not scale", e8, e2)
	}
}

// TestConcurrentTransfers exercises the fabric under real goroutine
// concurrency: accounting must stay consistent and no transfer may be lost.
func TestConcurrentTransfers(t *testing.T) {
	f := NewFabric(4, testParams())
	const (
		workers = 8
		ops     = 200
		size    = 128
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var now VTime
			for i := 0; i < ops; i++ {
				src := NodeID(rng.Intn(4))
				dst := NodeID(rng.Intn(4))
				end, err := f.Transfer(src, dst, size, now)
				if err != nil {
					t.Errorf("Transfer: %v", err)
					return
				}
				if end < now {
					t.Errorf("end %v before start %v", end, now)
					return
				}
				now = end
			}
		}(int64(w))
	}
	wg.Wait()

	var egressOps, ingressOps int64
	for _, st := range f.Stats() {
		egressOps += st.Egress.Ops
		ingressOps += st.Ingress.Ops
	}
	if egressOps != ingressOps {
		t.Errorf("egress ops %d != ingress ops %d", egressOps, ingressOps)
	}
}

// Property: a transfer's completion is never before start + serialization +
// propagation, and queueing can only push it later.
func TestTransferLowerBoundProperty(t *testing.T) {
	p := testParams()
	f := NewFabric(8, p)
	fn := func(srcRaw, dstRaw uint8, sizeRaw uint16, startRaw uint32) bool {
		src := NodeID(srcRaw % 8)
		dst := NodeID(dstRaw % 8)
		if src == dst {
			dst = (dst + 1) % 8
		}
		size := int(sizeRaw)
		start := VTime(startRaw)
		end, err := f.Transfer(src, dst, size, start)
		if err != nil {
			return false
		}
		lower := start.Add(p.SerializationTime(size) + p.PropDelay)
		return end >= lower
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestVTimeHelpers(t *testing.T) {
	v := VTime(1500)
	if got := v.Add(500 * time.Nanosecond); got != VTime(2000) {
		t.Errorf("Add = %v", got)
	}
	if got := VTime(2000).Sub(v); got != 500*time.Nanosecond {
		t.Errorf("Sub = %v", got)
	}
	if got := v.String(); got != "1.500us" {
		t.Errorf("String = %q", got)
	}
	if got := v.Duration(); got != 1500*time.Nanosecond {
		t.Errorf("Duration = %v", got)
	}
}

func TestDiskTime(t *testing.T) {
	p := testParams()
	got := p.DiskTime(1e9 / 8) // 125 MB at 1 Gb/s = 1s + seek
	want := p.DiskSeek + time.Second
	if got != want {
		t.Errorf("DiskTime = %v, want %v", got, want)
	}
}

func TestZeroByteTransferStillPaysPropagation(t *testing.T) {
	f := NewFabric(2, testParams())
	end, err := f.Transfer(0, 1, 0, 100)
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	if want := VTime(100).Add(testParams().PropDelay); end != want {
		t.Errorf("end = %v, want %v", end, want)
	}
}

func TestVNowMonotonic(t *testing.T) {
	f := NewFabric(2, testParams())
	var prev VTime
	for i := 0; i < 50; i++ {
		if _, err := f.Transfer(0, 1, 100, VTime(i*10)); err != nil {
			t.Fatalf("Transfer: %v", err)
		}
		now := f.VNow()
		if now < prev {
			t.Fatalf("VNow went backwards: %v -> %v", prev, now)
		}
		prev = now
	}
	if prev == 0 {
		t.Error("VNow never advanced")
	}
}

func TestSegmentedTransferMatchesWholeTransfer(t *testing.T) {
	// On an idle fabric, segmentation must not change a single flow's
	// completion time (modulo the final segment's pipelining benefit being
	// absent for a lone flow).
	p := testParams()
	p.SegmentBytes = 256
	f := NewFabric(2, p)
	end, err := f.Transfer(0, 1, 4096, 0)
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	want := VTime(0).Add(p.SerializationTime(4096) + p.PropDelay)
	if end != want {
		t.Errorf("segmented end = %v, want %v", end, want)
	}
}

func TestLoopbackToDownNodeFails(t *testing.T) {
	f := NewFabric(1, testParams())
	if err := f.SetNodeUp(0, false); err != nil {
		t.Fatalf("SetNodeUp: %v", err)
	}
	if _, err := f.Transfer(0, 0, 10, 0); !errors.Is(err, ErrNodeDown) {
		t.Errorf("err = %v, want ErrNodeDown", err)
	}
}

// TestTransferOrderingUnderConcurrentMutation: Transfer takes the fabric
// lock once and each line's lock once per segment, and nothing else; this
// holds the contract that budget must keep. Goroutines transfer while
// others grow the cluster and read and reset the stats, and liveness and
// partitions flip underneath. A transfer started after SetNodeUp(id, false)
// or SetPartition(a, b, true) returned — on another goroutine, ordered only
// by a channel hand-off — fails with the matching error, one started after
// the heal succeeds, and once traffic stops every byte moved is accounted
// exactly twice (on its egress and on its ingress line).
func TestTransferOrderingUnderConcurrentMutation(t *testing.T) {
	const (
		bystanders = 3 // nodes 0–2 carry background traffic and are never faulted
		victim     = NodeID(3)
		peer       = NodeID(4)
		size       = 100 << 10 // two segments
		rounds     = 100
	)
	f := NewFabric(5, testParams())
	var moved atomic.Int64
	transfer := func(from, to NodeID, start VTime, want error) VTime {
		done, err := f.Transfer(from, to, size, start)
		if !errors.Is(err, want) {
			t.Errorf("Transfer(%v, %v) = %v, want %v", from, to, err, want)
		}
		if err == nil {
			moved.Add(size)
		}
		return done
	}

	// The prober owns victim↔peer traffic and runs each transfer on request.
	type probe struct {
		from, to NodeID
		want     error
	}
	probes, probed := make(chan probe), make(chan struct{})
	defer close(probes)
	go func() {
		for p := range probes {
			transfer(p.from, p.to, f.VNow(), p.want)
			probed <- struct{}{}
		}
	}()
	check := func(from, to NodeID, want error) {
		probes <- probe{from, to, want}
		<-probed
	}

	phase := func(resetting bool) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		// churn calls fn until the phase ends, yielding between calls so the
		// hand-offs to the prober are not starved on a small box.
		churn := func(fn func(i int)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
						fn(i)
						runtime.Gosched()
					}
				}
			}()
		}
		for w := 0; w < bystanders; w++ {
			w, now := w, f.VNow()
			churn(func(i int) { now = transfer(NodeID(w), NodeID((w+1+i%2)%bystanders), now, nil) })
		}
		churn(func(i int) {
			if i < 32 {
				f.AddNode()
			}
			f.Stats()
			if resetting {
				f.ResetStats()
			}
		})
		for i := 0; i < rounds; i++ {
			if err := f.SetNodeUp(victim, false); err != nil {
				t.Fatal(err)
			}
			check(peer, victim, ErrNodeDown)
			check(victim, peer, ErrNodeDown)
			if err := f.SetNodeUp(victim, true); err != nil {
				t.Fatal(err)
			}
			check(peer, victim, nil)
			f.SetPartition(victim, peer, true)
			check(victim, peer, ErrPartitioned)
			check(victim, 0, nil) // a partition blocks one pair only
			f.SetPartition(peer, victim, false)
			check(victim, peer, nil)
		}
		close(stop)
		wg.Wait()
	}
	phase(true) // ResetStats in the mix: only races and ordering are checked
	f.ResetStats()
	moved.Store(0)
	phase(false)

	var accounted int64
	for _, st := range f.Stats() {
		accounted += st.Egress.Bytes + st.Ingress.Bytes
	}
	if want := 2 * moved.Load(); accounted != want || want == 0 {
		t.Errorf("lines account %d bytes, want 2 x %d moved", accounted, moved.Load())
	}
}

// BenchmarkFabricTransfer times one transfer between two live nodes whose
// lines are in the steady state of a long run: a chained caller (each op
// starts when the previous one completed) has long since filled both gap
// lists with intervals nothing fits into.
func BenchmarkFabricTransfer(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{
		{"64B", 64},
		{"256KiB", 256 << 10},
	} {
		b.Run(bc.name, func(b *testing.B) {
			f := NewFabric(2, DefaultParams())
			var now VTime
			for i := 0; i < 2*maxGaps; i++ {
				now, _ = f.Transfer(0, 1, 64, now)
			}
			if st := f.Stats()[0].Egress; st.Gaps < maxGaps {
				b.Fatalf("warm-up left %d gaps, want a full list", st.Gaps)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now, _ = f.Transfer(0, 1, bc.size, now)
			}
		})
	}
}
