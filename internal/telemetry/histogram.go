package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// reservoirSize bounds a histogram's lifetime sample reservoir (a window's
// is winReservoir); beyond it, samples are kept via reservoir sampling.
const reservoirSize = 4096

// Histogram records a stream of float64 observations and answers summary
// queries (count, sum, min, max, quantiles) over a uniform sample of the
// stream. The zero value is ready to use. Safe for concurrent use.
type Histogram struct {
	off *atomic.Bool
	win *winShared // registry window config; nil on zero-value histograms

	mu    sync.Mutex
	total HistogramSnapshot // lifetime accumulator

	// cur accumulates the in-progress window, bucket curBucket; when the
	// clock moves past it the window is sealed into ring. Observations
	// bucket themselves here inline so windowed quantiles come from
	// samples of that window alone (see window.go). All guarded by mu.
	windowed  bool
	curBucket int64
	cur       HistogramSnapshot
	ring      Ring[HistogramSnapshot]
}

// RecordValue adds one observation.
func (h *Histogram) RecordValue(v float64) {
	if h.off != nil && h.off.Load() {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.total.observe(v, reservoirSize)
	// A nil or disabled window config makes the rest a branch.
	if now, width := h.win.bucketNow(); width > 0 {
		if !h.windowed {
			h.windowed, h.curBucket = true, now
		} else if now > h.curBucket {
			h.seal(now)
		}
		h.cur.observe(v, winReservoir)
	}
}

// RecordDuration adds one observation measured as a duration (stored in
// nanoseconds).
func (h *Histogram) RecordDuration(d time.Duration) {
	h.RecordValue(float64(d.Nanoseconds()))
}

// Record is an alias of RecordDuration, kept for the bench API.
func (h *Histogram) Record(d time.Duration) { h.RecordDuration(d) }

// Summary renders count/mean/p50/p99/max, formatting nanosecond
// observations as durations.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.Count(),
		time.Duration(h.Mean()),
		time.Duration(h.Quantile(0.50)),
		time.Duration(h.Quantile(0.99)),
		time.Duration(h.Max()))
}

// observe adds one observation to the accumulator: exact summary stats
// plus a reservoir of at most capacity samples (Vitter's algorithm R; the
// stand-in for a uniform draw in [0, Count) is a hash of the observation
// index, so repeated runs keep identical reservoirs).
func (s *HistogramSnapshot) observe(v float64, capacity int) {
	if s.Count == 0 || v < s.Min {
		s.Min = v
	}
	if s.Count == 0 || v > s.Max {
		s.Max = v
	}
	s.Count++
	s.Sum += v
	if len(s.Samples) < capacity {
		s.Samples = append(s.Samples, v)
		return
	}
	x := uint64(s.Count) * 0x9e3779b97f4a7c15
	x ^= x >> 33
	if idx := x % uint64(s.Count); idx < uint64(capacity) {
		s.Samples[idx] = v
	}
}

// seal closes the in-progress window into the ring (which gap-fills
// skipped buckets with empty windows) and starts bucket now. Caller holds
// h.mu and guarantees now > h.curBucket. The sealed reservoir is never
// written again — the capacity clip makes any later append reallocate —
// so frozen rings share it instead of copying.
func (h *Histogram) seal(now int64) {
	w := h.cur
	w.Samples = w.Samples[:len(w.Samples):len(w.Samples)]
	h.ring.record(h.curBucket, w, HistogramSnapshot{})
	h.cur, h.curBucket = HistogramSnapshot{}, now
}

// resetWindow drops the in-progress window and the sealed ring; the next
// observation re-initializes bucketing. Used when the bucket width changes
// (old-width windows would misalign against new-width buckets).
func (h *Histogram) resetWindow() {
	h.mu.Lock()
	h.windowed, h.curBucket = false, 0
	h.cur, h.ring = HistogramSnapshot{}, Ring[HistogramSnapshot]{}
	h.mu.Unlock()
}

// freeze returns the lifetime value and, when windowing is on (width > 0),
// the ring of sealed windows after sealing any window completed before
// bucket now. A histogram that never windowed anything returns an empty
// ring.
func (h *Histogram) freeze(now, width int64) (HistogramSnapshot, Ring[HistogramSnapshot]) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var ring Ring[HistogramSnapshot]
	if width > 0 {
		if h.windowed && now > h.curBucket {
			h.seal(now)
		}
		ring = h.ring.clone()
	}
	total := h.total
	total.Samples = append([]float64(nil), total.Samples...)
	return total, ring
}

// Snapshot freezes the histogram's lifetime value.
func (h *Histogram) Snapshot() HistogramSnapshot {
	total, _ := h.freeze(0, 0)
	return total
}

// stats returns the lifetime summary stats; Samples stays behind the
// mutex.
func (h *Histogram) stats() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.total
	s.Samples = nil
	return s
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.stats().Count }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.stats().Sum }

// Min returns the smallest observation, or 0 for an empty histogram.
func (h *Histogram) Min() float64 { return h.stats().Min }

// Max returns the largest observation, or 0 for an empty histogram.
func (h *Histogram) Max() float64 { return h.stats().Max }

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 { return h.stats().Mean() }

// Quantile returns the q-quantile (q in [0,1], clamped) estimated from the
// sample reservoir. Empty histograms return 0; a single sample answers
// every quantile.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total.Quantile(q)
}

// Merge folds the contents of o into h (see HistogramSnapshot.Merge).
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || h == o {
		return
	}
	snap := o.Snapshot()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.total.Merge(snap)
}

// quantileOf computes the q-quantile of unsorted samples without mutating
// the input. Returns 0 when samples is empty.
func quantileOf(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// mergeReservoirs combines two uniform reservoirs drawn from streams of
// aSeen and bSeen observations into one reservoir of at most reservoirSize
// samples, weighting each side by its stream length. Deterministic.
func mergeReservoirs(a []float64, aSeen int64, b []float64, bSeen int64) []float64 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		out := make([]float64, len(b))
		copy(out, b)
		if len(out) > reservoirSize {
			out = out[:reservoirSize]
		}
		return out
	}
	if len(a)+len(b) <= reservoirSize {
		// Clipped so the append never writes into a's backing array:
		// frozen snapshots and sealed windows share reservoirs.
		return append(a[:len(a):len(a)], b...)
	}
	total := aSeen + bSeen
	if total <= 0 {
		total = int64(len(a) + len(b))
		aSeen, bSeen = int64(len(a)), int64(len(b))
	}
	// Allocate slots proportionally to stream sizes, then take an evenly
	// spaced subsample from each side (reservoirs are unordered uniform
	// samples, so strided selection keeps uniformity and determinism).
	aSlots := int(int64(reservoirSize) * aSeen / total)
	if aSlots > len(a) {
		aSlots = len(a)
	}
	bSlots := reservoirSize - aSlots
	if bSlots > len(b) {
		bSlots = len(b)
		if extra := reservoirSize - aSlots - bSlots; extra > 0 && aSlots+extra <= len(a) {
			aSlots += extra
		}
	}
	out := make([]float64, 0, aSlots+bSlots)
	out = append(out, strideSample(a, aSlots)...)
	out = append(out, strideSample(b, bSlots)...)
	return out
}

// strideSample picks n evenly spaced elements from s.
func strideSample(s []float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n >= len(s) {
		return s
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s[i*len(s)/n])
	}
	return out
}

// HistogramSnapshot is a histogram's value — exact summary stats plus
// Samples, a uniform reservoir over the observation stream — frozen and
// mergeable. A live Histogram accumulates into two of them (its lifetime
// total and its in-progress window) behind its mutex.
type HistogramSnapshot struct {
	Count   int64
	Sum     float64
	Min     float64
	Max     float64
	Samples []float64
}

// Mean returns the mean, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns the q-quantile from the sample reservoir (0 when empty).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	return quantileOf(s.Samples, q)
}

// Merge folds o into s, treating each side's reservoir as covering Count
// observations.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		s.Min, s.Max = o.Min, o.Max
	} else {
		if o.Min < s.Min {
			s.Min = o.Min
		}
		if o.Max > s.Max {
			s.Max = o.Max
		}
	}
	s.Samples = mergeReservoirs(s.Samples, s.Count, o.Samples, o.Count)
	s.Count += o.Count
	s.Sum += o.Sum
}
