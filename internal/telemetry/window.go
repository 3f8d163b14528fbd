package telemetry

// Windowed time series: besides its lifetime value, every registry metric
// reports per-window values over a ring of fixed-width virtual-time
// buckets, so operators (and the master's health engine) can see *current*
// rates and windowed latency quantiles instead of lifetime totals. A
// Snapshot carries both: the cumulative value and the sealed ring.
//
// Buckets are keyed by the fabric-wide virtual clock — bucket k covers
// [k*width, (k+1)*width) of virtual time — so every node's windows align
// cluster-wide and merged rings stay bucket-exact even when snapshots
// were taken at different boundaries. Virtual time advances only as
// modeled work happens, which is exactly the property the windows want:
// an idle cluster produces empty windows, not wall-clock noise.
//
// Collection is split to keep the hot path flat:
//
//   - Counters and gauges stay cumulative; Registry.Snapshot samples them
//     from the values it just read and stores the per-window deltas. The
//     mutation path is untouched. Snapshots arrive at least once per
//     heartbeat (memservers snapshot on every beat, the master on every
//     monitor tick), so attribution is off by at most one bucket when one
//     lands late.
//   - Histograms bucket observations inline under the mutex they already
//     take, keeping a small per-window reservoir so windowed quantiles
//     are answered from samples of that window alone.

import (
	"sync/atomic"
	"time"

	"rstore/internal/simnet"
)

const (
	// DefaultWindowWidth is the virtual-time width of one window bucket.
	// Modeled data-path ops take microseconds, so a millisecond of virtual
	// time covers hundreds to thousands of ops — wide enough for stable
	// rates, narrow enough to see an abort spike the moment it happens.
	DefaultWindowWidth = time.Millisecond
	// maxWindows bounds every per-metric window ring.
	maxWindows = 32
	// winReservoir bounds the per-window histogram sample reservoir.
	winReservoir = 128
)

// clockFunc reads the virtual clock windows bucket on.
type clockFunc = func() simnet.VTime

// winShared is a registry's window configuration, shared with each of its
// histograms so observations can bucket themselves inline. A nil clock or
// non-positive width disables windowing (bucketNow reports width 0 and
// every window path becomes a branch).
type winShared struct {
	clock   atomic.Pointer[clockFunc]
	widthNS atomic.Int64
}

func newWinShared() *winShared {
	w := &winShared{}
	w.widthNS.Store(int64(DefaultWindowWidth))
	return w
}

// bucketNow returns the bucket the current virtual instant falls in and
// the bucket width; width 0 means windowing is disabled.
func (w *winShared) bucketNow() (bucket, width int64) {
	if w == nil {
		return 0, 0
	}
	fn := w.clock.Load()
	width = w.widthNS.Load()
	if fn == nil || width <= 0 {
		return 0, 0
	}
	return int64((*fn)()) / width, width
}

// SetWindowClock attaches the virtual clock windows bucket on (the rdma
// device wires the fabric frontier here). Windowing stays disabled until
// a clock is set. The counter/gauge sampler baselines immediately:
// deferring the baseline to the first periodic snapshot would silently
// fold everything the node does before it into the baseline, so a
// workload that finishes inside the first heartbeat interval would never
// show up in any window.
func (r *Registry) SetWindowClock(clock func() simnet.VTime) {
	if clock == nil {
		r.win.clock.Store(nil)
		return
	}
	r.win.clock.Store(&clock)
	r.Snapshot()
}

// SetWindowWidth sets the virtual-time width of one window bucket.
// d <= 0 disables windowing entirely. Bucket numbering is width-relative,
// so changing the width discards windows sealed under the old one (they
// would misalign against new-width buckets on merge) and re-baselines the
// sampler at the current cumulative values.
func (r *Registry) SetWindowWidth(d time.Duration) {
	if time.Duration(r.win.widthNS.Swap(int64(d))) == d {
		return
	}
	r.mu.Lock()
	r.winInit = false
	r.winBase = make(map[string]int64)
	r.winCounters = make(map[string]*Ring[int64])
	r.winGauges = make(map[string]*Ring[int64])
	for _, h := range r.hists {
		h.resetWindow()
	}
	r.mu.Unlock()
	r.Snapshot()
}

// WindowWidth returns the configured bucket width (0 = disabled).
func (r *Registry) WindowWidth() time.Duration {
	return time.Duration(r.win.widthNS.Load())
}

// Ring is one metric's sealed per-window values: a contiguous run of
// buckets ending at bucket End, oldest first, at most maxWindows long —
// Vals[len-1] is bucket End, Vals[0] is bucket End-len+1. A counter's
// values are per-window deltas, a gauge's the value observed in that
// window, a histogram's the snapshot of that window's observations alone.
type Ring[T any] struct {
	End  int64
	Vals []T
}

// record seals bucket with value v, gap-filling skipped buckets with fill
// and dropping windows beyond the ring capacity. Seals are issued with a
// monotone bucket cursor, so a non-advancing one can only be a duplicate
// and is ignored.
func (r *Ring[T]) record(bucket int64, v, fill T) {
	if len(r.Vals) > 0 {
		if bucket <= r.End {
			return
		}
		gap := bucket - r.End - 1
		if gap >= maxWindows {
			r.Vals, gap = r.Vals[:0], maxWindows-1
		}
		for ; gap > 0; gap-- {
			r.Vals = append(r.Vals, fill)
		}
	}
	r.Vals = append(r.Vals, v)
	if drop := len(r.Vals) - maxWindows; drop > 0 {
		r.Vals = append(r.Vals[:0], r.Vals[drop:]...)
	}
	r.End = bucket
}

// last returns the newest k windows (the whole ring when k <= 0 or k
// exceeds it).
func (r Ring[T]) last(k int) []T {
	if k <= 0 || k >= len(r.Vals) {
		return r.Vals
	}
	return r.Vals[len(r.Vals)-k:]
}

func (r Ring[T]) clone() Ring[T] {
	return Ring[T]{End: r.End, Vals: append([]T(nil), r.Vals...)}
}

// merge folds two bucket-aligned rings: buckets both sealed combine with
// comb, buckets one side never sealed keep the other's value (a snapshot
// taken at an earlier boundary simply covers fewer buckets), and the
// union span is truncated to maxWindows ending at the later End. Values
// are addressed by their distance back from that End, never by absolute
// bucket, so no End — however extreme a decoded one is — can overflow
// the arithmetic; a ring whose newest bucket trails by maxWindows or more
// lies wholly outside the span and contributes only that the span is full
// length: the newer ring is kept, zero-extended back to maxWindows.
func (a Ring[T]) merge(b Ring[T], comb func(x, y T) T) Ring[T] {
	if len(b.Vals) == 0 {
		return a.clone()
	}
	if len(a.Vals) == 0 {
		return b.clone()
	}
	if a.End < b.End {
		a, b = b, a
	}
	lag := uint64(a.End) - uint64(b.End) // exact: a.End >= b.End
	if lag >= maxWindows {
		b, lag = Ring[T]{}, maxWindows
	}
	n := min(max(len(a.Vals), len(b.Vals)+int(lag)), maxWindows)
	out := Ring[T]{End: a.End, Vals: make([]T, n)}
	for back := 0; back < n; back++ {
		ia, ib := len(a.Vals)-1-back, len(b.Vals)-1-(back-int(lag))
		inA, inB := ia >= 0, ib >= 0 && ib < len(b.Vals)
		var v T // a bucket in the gap between the two rings stays zero
		switch {
		case inA && inB:
			v = comb(a.Vals[ia], b.Vals[ib])
		case inA:
			v = a.Vals[ia]
		case inB:
			v = b.Vals[ib]
		}
		out.Vals[n-1-back] = v
	}
	return out
}

// sample seals v as name's value for bucket. A metric with no ring yet
// gets one only for a non-zero value, so idle metrics materialise nothing.
func sample(rings map[string]*Ring[int64], name string, bucket, v, fill int64) {
	ring := rings[name]
	if ring == nil {
		if v == 0 {
			return
		}
		ring = &Ring[int64]{}
		rings[name] = ring
	}
	ring.record(bucket, v, fill)
}

// tickLocked advances the counter/gauge window sampler to bucket now from
// the cumulative values a snapshot just read: any bucket completed since
// the last tick is sealed with the counter delta accumulated in between
// (attributed to the newest completed bucket; skipped buckets seal empty)
// and the gauge's current value (skipped buckets carry it). The first
// tick only baselines. Caller holds r.mu.
func (r *Registry) tickLocked(now int64, counters, gauges map[string]int64) {
	if r.winInit && now <= r.winBucket {
		return
	}
	seal := r.winInit
	r.winInit, r.winBucket = true, now
	for name, cur := range counters {
		delta := cur - r.winBase[name]
		r.winBase[name] = cur
		if seal {
			sample(r.winCounters, name, now-1, delta, 0)
		}
	}
	if seal {
		for name, v := range gauges {
			sample(r.winGauges, name, now-1, v, v)
		}
	}
}

// Width returns the window bucket width (0: the snapshot has no windows).
func (s Snapshot) Width() time.Duration { return time.Duration(s.WidthNS) }

// CounterDelta sums the named counter's newest k windows (whole ring when
// k <= 0). Absent metrics return 0.
func (s Snapshot) CounterDelta(name string, k int) int64 {
	var total int64
	for _, v := range s.CounterWindows[name].last(k) {
		total += v
	}
	return total
}

// CounterRate returns the named counter's increments per second of
// virtual time over its ring's covered span.
func (s Snapshot) CounterRate(name string) float64 {
	span := time.Duration(int64(len(s.CounterWindows[name].Vals)) * s.WidthNS).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(s.CounterDelta(name, 0)) / span
}

// GaugeLast returns the named gauge's newest windowed value.
func (s Snapshot) GaugeLast(name string) (int64, bool) {
	vals := s.GaugeWindows[name].Vals
	if len(vals) == 0 {
		return 0, false
	}
	return vals[len(vals)-1], true
}

// HistogramWindow merges the named histogram's newest k windows (whole
// ring when k <= 0) into one snapshot, answering windowed quantiles over
// exactly that span.
func (s Snapshot) HistogramWindow(name string, k int) HistogramSnapshot {
	var out HistogramSnapshot
	for _, h := range s.HistogramWindows[name].last(k) {
		out.Merge(h)
	}
	return out
}
