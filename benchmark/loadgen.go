package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"rstore/internal/client"
	"rstore/internal/core"
	"rstore/internal/index"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// instance is one booted, preloaded workload: a cluster plus whatever the
// ops need. Setup builds it; the load generator only ever calls op.
type instance interface {
	// op runs one logical operation for worker w, closed loop, and
	// returns its class, its modeled (virtual-time) latency and any
	// failure — an error from the system or an output that does not
	// verify.
	op(ctx context.Context, w *worker) (class uint8, modelNs int64, err error)
	// verify checks the final state after the timed phase and returns how
	// many logical ops' worth of output was wrong.
	verify(ctx context.Context) (mismatches int, err error)
	// parts exposes what the counters and the ladder read.
	parts() parts
	close()
}

// parts is an instance's public surface for the harness.
type parts struct {
	cluster *core.Cluster
	clients []*client.Client
	tree    *index.Tree // nil unless the workload drives an index
}

// worker is one closed-loop caller. Its sample buffers are sized for the
// whole timed phase before the first timed op: the loop below never
// grows a slice, logs, or touches a map (growing the sample slices inside
// the loop alone cost the prototype up to half of read_small's
// throughput; loadgen.gc_cycles makes a relapse visible).
type worker struct {
	id    int
	host  []int64 // per-op host ns, one slot per planned op
	model []int64 // per-op modeled ns
	class []uint8 // per-op class, classFailed for a failed op
	next  int     // next free sample slot

	spans *spanBuf // nil unless this round is traced
	opID  uint32
	vcur  int64 // modeled-time cursor the spans are laid out on
}

const classFailed = 0xff

func newWorker(id, capacity int) *worker {
	return &worker{
		id:    id,
		host:  make([]int64, capacity),
		model: make([]int64, capacity),
		class: make([]uint8, capacity),
	}
}

// round is one timed batch of a fixed op count.
type round struct {
	wall      time.Duration
	lo, hi    []int // per worker: sample slots [lo, hi) this round filled
	attempted int
	failed    int
}

func (r round) opsPerSec() float64 {
	return float64(r.attempted-r.failed) / r.wall.Seconds()
}

// runRound drives perWorker ops on every worker concurrently and waits for
// all of them. A round that overruns its deadline (3x its budget) stops
// and counts the ops it never issued as failed, so a wedged system cannot
// hang the benchmark.
func runRound(ctx context.Context, inst instance, workers []*worker, perWorker int, budget time.Duration) round {
	r := round{lo: make([]int, len(workers)), hi: make([]int, len(workers))}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(3 * budget)
	for i, w := range workers {
		r.lo[i] = w.next
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.drive(ctx, inst, perWorker, deadline)
		}(w)
	}
	wg.Wait()
	r.wall = time.Since(start)
	for i, w := range workers {
		r.hi[i] = w.next
		r.attempted += perWorker
		for _, c := range w.class[r.lo[i]:r.hi[i]] {
			if c == classFailed {
				r.failed++
			}
		}
		r.failed += perWorker - (r.hi[i] - r.lo[i]) // never issued
	}
	return r
}

// drive is the timed loop: time.Now pairs around the op and three stores.
func (w *worker) drive(ctx context.Context, inst instance, n int, deadline time.Time) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if t0.After(deadline) {
			return // the round counts the ops never issued as failed
		}
		var root int
		if w.spans != nil {
			root = w.beginAt(spanRoot, t0)
		}
		cls, modelNs, err := inst.op(ctx, w)
		d := time.Since(t0)
		if w.spans != nil {
			w.endRoot(root, cls, modelNs, int64(d))
		}
		w.opID++
		if err != nil {
			cls = classFailed
		}
		w.host[w.next] = int64(d)
		w.model[w.next] = modelNs
		w.class[w.next] = cls
		w.next++
	}
}

// samples gathers one column of the given rounds' successful ops.
func samples(workers []*worker, rounds []round, col func(*worker) []int64, class int) []int64 {
	var out []int64
	for _, r := range rounds {
		for i, w := range workers {
			vals := col(w)
			for s := r.lo[i]; s < r.hi[i]; s++ {
				c := w.class[s]
				if c == classFailed || (class >= 0 && int(c) != class) {
					continue
				}
				out = append(out, vals[s])
			}
		}
	}
	sortInt64(out)
	return out
}

func hostCol(w *worker) []int64  { return w.host }
func modelCol(w *worker) []int64 { return w.model }

// quantile reads the nearest-rank q-quantile of sorted values, in the
// values' own unit; 0 when there are none.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func mean(vals []int64) float64 {
	return ratio(sum(vals), float64(len(vals)))
}

func sum(vals []int64) float64 {
	var total float64
	for _, v := range vals {
		total += float64(v)
	}
	return total
}

func sortInt64(vals []int64) {
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// modelKopsPerSec is logical ops per virtual second summed over workers:
// each closed-loop worker's virtual elapsed time is the sum of its ops'
// modeled latencies.
func modelKopsPerSec(workers []*worker, rounds []round) float64 {
	var total float64
	for i, w := range workers {
		var ops, ns float64
		for _, r := range rounds {
			for s := r.lo[i]; s < r.hi[i]; s++ {
				if w.class[s] != classFailed {
					ops++
					ns += float64(w.model[s])
				}
			}
		}
		if ns > 0 {
			total += ops / ns * 1e6
		}
	}
	return total
}

// hostCounters is the process-wide host cost the timed phase is charged.
type hostCounters struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	cpu                 time.Duration
}

func readHostCounters() hostCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return hostCounters{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// clusterCounters is everything the per-op counts are deltas of, read
// through the layers' public accessors only.
type clusterCounters struct {
	tel   telemetry.Snapshot
	links []simnet.NodeStats
	vnow  simnet.VTime
	ctrl  client.ControlStats
}

func readClusterCounters(p parts) clusterCounters {
	c := clusterCounters{
		tel:   p.cluster.TelemetrySnapshot(),
		links: p.cluster.Fabric().Stats(),
		vnow:  p.cluster.Fabric().VNow(),
	}
	for _, cli := range p.clients {
		s := cli.ControlStats()
		c.ctrl.RPCTime += s.RPCTime
		c.ctrl.ConnectTime += s.ConnectTime
		c.ctrl.RegisterTime += s.RegisterTime
		c.ctrl.RPCs += s.RPCs
		c.ctrl.Connects += s.Connects
		c.ctrl.Registers += s.Registers
	}
	return c
}

// counterDelta is after-before for one named counter.
func counterDelta(before, after clusterCounters, name string) float64 {
	return float64(after.tel.Counter(name) - before.tel.Counter(name))
}
