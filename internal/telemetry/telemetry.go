// Package telemetry is RStore's cluster-wide observability substrate: a
// low-overhead, concurrency-safe metrics registry (named counters, gauges,
// and mergeable histograms) plus span-style operation tracing stamped with
// simnet virtual time.
//
// Every node (device) owns one Registry; the layers running on that node —
// rdma, rpc, client, master, memserver — register named metrics in it.
// Registry.Snapshot freezes a registry into one plain value — every
// metric's lifetime total plus its ring of sealed virtual-time windows
// (window.go) — that merges with other nodes' snapshots and marshals onto
// the control plane in one wire format (wire.go): memory servers piggyback
// it on heartbeats, the master serves MtStats and MtHealth from it.
//
// Hot-path design: counters are sharded across cache-line-padded atomic
// cells so concurrent writers on different cores do not bounce one line;
// gauges are single atomics; histograms take one uncontended mutex per
// observation (they sit on paths whose modeled cost is microseconds).
// Metric handles are resolved once at component construction, never on the
// hot path. A disabled registry turns every mutation into a single atomic
// load and branch.
//
// The package deliberately depends only on the standard library and
// internal/simnet (for virtual time), so every layer of the tree — rdma
// included — can import it without cycles.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"rstore/internal/simnet"
)

// counterShards is the number of padded cells a counter stripes over. Eight
// covers the core counts the simulated cluster realistically runs on.
const counterShards = 8

// paddedCell is an atomic int64 padded to a cache line so neighbouring
// shards never share one.
type paddedCell struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter. The zero value is
// usable (always enabled); registry-created counters honour the registry's
// enabled flag.
type Counter struct {
	off    *atomic.Bool
	shards [counterShards]paddedCell
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe for concurrent use; negative n is ignored so merged
// totals stay monotone.
func (c *Counter) Add(n int64) {
	if n <= 0 || (c.off != nil && c.off.Load()) {
		return
	}
	c.shards[shardIndex()].v.Add(n)
}

// shardIndex picks a counter shard correlated with the calling goroutine:
// the address of a stack variable, divided down to cache-line granularity.
// Distinct goroutines live on distinct stacks, so concurrent writers
// spread across shards without the per-increment PRNG draw the previous
// implementation paid. The uintptr conversion keeps the variable on the
// stack (no reference escapes).
func shardIndex() uint32 {
	var probe byte
	return uint32(uintptr(unsafe.Pointer(&probe))/64) % counterShards
}

// Value returns the current total.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Gauge is an instantaneous int64 value (bytes in use, regions alive).
type Gauge struct {
	off *atomic.Bool
	v   atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g.off != nil && g.off.Load() {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (negative allowed).
func (g *Gauge) Add(delta int64) {
	if g.off != nil && g.off.Load() {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is one node's named-metric table. All methods are safe for
// concurrent use. Metric lookup takes a lock: resolve handles once at
// component construction, not per operation.
type Registry struct {
	node simnet.NodeID
	off  atomic.Bool

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	tracer *Tracer

	// Window sampler state (see window.go). win configures bucketing and
	// is shared with every histogram; the rest, guarded by mu, is the
	// sealed counter/gauge rings and the cumulative baseline of the last
	// tick.
	win         *winShared
	winInit     bool
	winBucket   int64
	winBase     map[string]int64
	winCounters map[string]*Ring[int64]
	winGauges   map[string]*Ring[int64]
}

// New creates a registry for the given node with an attached tracer
// (tracing starts disabled; see Tracer.SetSampling).
func New(node simnet.NodeID) *Registry {
	r := &Registry{
		node:        node,
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		hists:       make(map[string]*Histogram),
		win:         newWinShared(),
		winBase:     make(map[string]int64),
		winCounters: make(map[string]*Ring[int64]),
		winGauges:   make(map[string]*Ring[int64]),
	}
	r.tracer = newTracer(node, defaultTraceRing)
	return r
}

// Node returns the fabric node this registry belongs to.
func (r *Registry) Node() simnet.NodeID { return r.node }

// SetEnabled turns the whole registry on or off. Disabled, every metric
// mutation is one atomic load and a branch (~zero overhead); reads still
// return the values accumulated while enabled.
func (r *Registry) SetEnabled(on bool) { r.off.Store(!on) }

// Tracer returns the registry's span tracer.
func (r *Registry) Tracer() *Tracer { return r.tracer }

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{off: &r.off}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{off: &r.off}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{off: &r.off, win: r.win}
		r.hists[name] = h
	}
	return h
}

// Snapshot freezes the registry into a mergeable value: every metric is
// read once, the window sampler ticks from the values just read, and the
// result carries lifetime totals and sealed windows alike (the newest
// sealed bucket is the one before the current virtual instant).
// Zero-valued metrics are included, so a snapshot also documents which
// metrics exist; idle ones have no ring. Safe to call from any goroutine,
// any number of times per bucket.
func (r *Registry) Snapshot() Snapshot {
	// The clock reads the fabric frontier: sample it before taking r.mu.
	now, width := r.win.bucketNow()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	if width > 0 {
		r.tickLocked(now, s.Counters, s.Gauges)
		s.WidthNS = width
		s.CounterWindows = cloneRings(r.winCounters)
		s.GaugeWindows = cloneRings(r.winGauges)
		s.HistogramWindows = make(map[string]Ring[HistogramSnapshot])
	}
	for name, h := range r.hists {
		total, ring := h.freeze(now, width)
		s.Histograms[name] = total
		if len(ring.Vals) > 0 {
			s.HistogramWindows[name] = ring
		}
	}
	return s
}

func cloneRings(live map[string]*Ring[int64]) map[string]Ring[int64] {
	out := make(map[string]Ring[int64], len(live))
	for name, ring := range live {
		out[name] = ring.clone()
	}
	return out
}

// Snapshot is a frozen view of one registry (or, after Merge, of several).
// A metric's frozen form is its lifetime value plus its ring of sealed
// windows: Counters/Gauges/Histograms hold the former, the *Windows maps
// the latter under the same names (only metrics that were ever active in
// a window have a ring).
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot

	// WidthNS is the window bucket width in nanoseconds of virtual time.
	// Zero means windowing was disabled (the window maps are nil).
	WidthNS          int64
	CounterWindows   map[string]Ring[int64]
	GaugeWindows     map[string]Ring[int64]
	HistogramWindows map[string]Ring[HistogramSnapshot]
}

// Counter returns the named counter's value (zero when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the named gauge's value (zero when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Merge folds o into s: counters and gauges add, histograms merge, and
// window rings merge bucket-aligned with the same per-bucket operation
// (see Ring.merge). Nil maps are initialized, so the zero Snapshot is a
// valid accumulator. Windows of different widths do not align: a
// windowless s adopts o's width, a mismatch keeps s's windows unchanged
// (the lifetime values still merge).
func (s *Snapshot) Merge(o Snapshot) {
	ensure(&s.Counters)
	ensure(&s.Gauges)
	ensure(&s.Histograms)
	add := func(x, y int64) int64 { return x + y }
	mergeHist := func(x, y HistogramSnapshot) HistogramSnapshot { x.Merge(y); return x }
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		s.Gauges[name] += v
	}
	for name, h := range o.Histograms {
		s.Histograms[name] = mergeHist(s.Histograms[name], h)
	}
	if o.WidthNS == 0 || (s.WidthNS != 0 && s.WidthNS != o.WidthNS) {
		return
	}
	s.WidthNS = o.WidthNS
	ensure(&s.CounterWindows)
	ensure(&s.GaugeWindows)
	ensure(&s.HistogramWindows)
	for name, ring := range o.CounterWindows {
		s.CounterWindows[name] = s.CounterWindows[name].merge(ring, add)
	}
	for name, ring := range o.GaugeWindows {
		s.GaugeWindows[name] = s.GaugeWindows[name].merge(ring, add)
	}
	for name, ring := range o.HistogramWindows {
		s.HistogramWindows[name] = s.HistogramWindows[name].merge(ring, mergeHist)
	}
}

func ensure[V any](m *map[string]V) {
	if *m == nil {
		*m = make(map[string]V)
	}
}

// String renders the snapshot sorted by metric name (for logs and tests).
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "counter %s = %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "gauge %s = %d\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "hist %s n=%d mean=%.0f p99=%.0f\n", n, h.Count, h.Mean(), h.Quantile(0.99))
	}
	return b.String()
}
