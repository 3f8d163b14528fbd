package telemetry

import (
	"reflect"
	"testing"
	"time"

	"rstore/internal/simnet"
)

// winClock is a manually advanced virtual clock for window tests.
type winClock struct{ now simnet.VTime }

func (c *winClock) read() simnet.VTime { return c.now }

func (c *winClock) advance(d time.Duration) { c.now += simnet.VTime(d) }

func newWindowedRegistry(t *testing.T) (*Registry, *winClock) {
	t.Helper()
	r := New(1)
	clk := &winClock{}
	r.SetWindowClock(clk.read)
	return r, clk
}

func TestCounterWindowDeltas(t *testing.T) {
	r, clk := newWindowedRegistry(t)
	c := r.Counter("ops")
	r.Snapshot() // baseline at bucket 0

	c.Add(5)
	clk.advance(time.Millisecond)
	r.Snapshot() // seals bucket 0

	c.Add(3)
	clk.advance(2 * time.Millisecond)
	r.Snapshot() // seals bucket 2; bucket 1 is an empty window

	s := r.Snapshot()
	ser, ok := s.CounterWindows["ops"]
	if !ok {
		t.Fatal("counter series missing")
	}
	if ser.End != 2 || !reflect.DeepEqual(ser.Vals, []int64{5, 0, 3}) {
		t.Fatalf("series = end %d vals %v, want end 2 vals [5 0 3]", ser.End, ser.Vals)
	}
	if got := s.CounterDelta("ops", 0); got != 8 {
		t.Fatalf("CounterDelta(all) = %d, want 8", got)
	}
	if got := s.CounterDelta("ops", 2); got != 3 {
		t.Fatalf("CounterDelta(2) = %d, want 3", got)
	}
	wantRate := 8.0 / (3 * time.Millisecond).Seconds()
	if got := s.CounterRate("ops"); got != wantRate {
		t.Fatalf("CounterRate = %v, want %v", got, wantRate)
	}
	if got := s.CounterDelta("absent", 0); got != 0 {
		t.Fatalf("absent counter delta = %d, want 0", got)
	}
}

func TestGaugeWindowsCarryValue(t *testing.T) {
	r, clk := newWindowedRegistry(t)
	g := r.Gauge("depth")
	g.Set(7)
	r.Snapshot()
	clk.advance(time.Millisecond)
	r.Snapshot() // seals bucket 0 = 7

	g.Set(3)
	clk.advance(3 * time.Millisecond)
	r.Snapshot() // seals bucket 3 = 3; skipped buckets carry the value

	s := r.Snapshot()
	ser := s.GaugeWindows["depth"]
	if ser.End != 3 || !reflect.DeepEqual(ser.Vals, []int64{7, 3, 3, 3}) {
		t.Fatalf("gauge series = end %d vals %v, want end 3 vals [7 3 3 3]", ser.End, ser.Vals)
	}
	if v, ok := s.GaugeLast("depth"); !ok || v != 3 {
		t.Fatalf("GaugeLast = %d,%v, want 3,true", v, ok)
	}
	if _, ok := s.GaugeLast("absent"); ok {
		t.Fatal("GaugeLast(absent) reported ok")
	}
}

func TestCounterWindowRingWraparound(t *testing.T) {
	r, clk := newWindowedRegistry(t)
	c := r.Counter("ops")
	r.Snapshot()
	for i := 0; i < 40; i++ {
		c.Add(1)
		clk.advance(time.Millisecond)
		r.Snapshot()
	}
	s := r.Snapshot()
	ser := s.CounterWindows["ops"]
	if ser.End != 39 || len(ser.Vals) != maxWindows {
		t.Fatalf("series end %d len %d, want end 39 len %d", ser.End, len(ser.Vals), maxWindows)
	}
	if sum := s.CounterDelta("ops", 0); sum != maxWindows {
		t.Fatalf("wrapped sum = %d, want %d (oldest windows dropped)", sum, maxWindows)
	}
}

func TestCounterWindowLongGapResets(t *testing.T) {
	r, clk := newWindowedRegistry(t)
	c := r.Counter("ops")
	r.Snapshot()
	c.Add(1)
	clk.advance(time.Millisecond)
	r.Snapshot() // bucket 0 = 1

	c.Add(2)
	clk.advance(100 * time.Millisecond)
	r.Snapshot() // bucket 100 = 2; the 99-bucket gap exceeds the ring

	s := r.Snapshot()
	ser := s.CounterWindows["ops"]
	if ser.End != 100 || len(ser.Vals) != maxWindows {
		t.Fatalf("series end %d len %d, want end 100 len %d", ser.End, len(ser.Vals), maxWindows)
	}
	if sum, last := s.CounterDelta("ops", 0), s.CounterDelta("ops", 1); sum != 2 || last != 2 {
		t.Fatalf("sum %d last %d, want 2 and 2 (old window dropped, gap empty)", sum, last)
	}
}

func TestHistogramWindowedQuantiles(t *testing.T) {
	r, clk := newWindowedRegistry(t)
	h := r.Histogram("lat")
	h.RecordValue(1)
	h.RecordValue(2)
	clk.advance(time.Millisecond)
	h.RecordValue(10) // first observation of bucket 1 seals bucket 0
	clk.advance(time.Millisecond)

	s := r.Snapshot() // at bucket 2: seals bucket 1
	wh, ok := s.HistogramWindows["lat"]
	if !ok {
		t.Fatal("histogram windows missing")
	}
	if wh.End != 1 || len(wh.Vals) != 2 {
		t.Fatalf("windows end %d len %d, want end 1 len 2", wh.End, len(wh.Vals))
	}
	if w0 := wh.Vals[0]; w0.Count != 2 || w0.Min != 1 || w0.Max != 2 {
		t.Fatalf("window 0 = %+v, want count 2 min 1 max 2", w0)
	}
	// The newest window's quantiles come from its samples alone.
	if got := s.HistogramWindow("lat", 1).Quantile(0.99); got != 10 {
		t.Fatalf("newest window p99 = %v, want 10", got)
	}
	if got := s.HistogramWindow("lat", 0).Quantile(0.5); got != 2 {
		t.Fatalf("all-window p50 = %v, want 2", got)
	}
}

func TestHistogramWindowEmptyAndSingleSample(t *testing.T) {
	// Quantile on a window with no samples answers 0; a single sample
	// answers every quantile.
	empty := HistogramSnapshot{}
	if got := empty.Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	single := HistogramSnapshot{Count: 1, Sum: 42, Min: 42, Max: 42, Samples: []float64{42}}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := single.Quantile(q); got != 42 {
			t.Fatalf("single-sample quantile(%v) = %v, want 42", q, got)
		}
	}

	// Windows skipped entirely appear as empty snapshots in the ring.
	r, clk := newWindowedRegistry(t)
	h := r.Histogram("lat")
	h.RecordValue(5)
	clk.advance(4 * time.Millisecond)
	h.RecordValue(9) // seals bucket 0; buckets 1..3 were silent
	clk.advance(time.Millisecond)
	wh := r.Snapshot().HistogramWindows["lat"]
	if wh.End != 4 || len(wh.Vals) != 5 {
		t.Fatalf("windows end %d len %d, want end 4 len 5", wh.End, len(wh.Vals))
	}
	for i := 1; i <= 3; i++ {
		if w := wh.Vals[i]; w.Count != 0 || w.Quantile(0.5) != 0 {
			t.Fatalf("window %d = %+v, want empty", i, w)
		}
	}
	if wh.Vals[4].Count != 1 || wh.Vals[4].Quantile(0.5) != 9 {
		t.Fatalf("window 4 = %+v, want single sample 9", wh.Vals[4])
	}
}

func TestHistogramWindowRingWraparound(t *testing.T) {
	r, clk := newWindowedRegistry(t)
	h := r.Histogram("lat")
	for i := 0; i < 40; i++ {
		h.RecordValue(float64(i))
		clk.advance(time.Millisecond)
	}
	s := r.Snapshot()
	wh := s.HistogramWindows["lat"]
	if wh.End != 39 || len(wh.Vals) != maxWindows {
		t.Fatalf("windows end %d len %d, want end 39 len %d", wh.End, len(wh.Vals), maxWindows)
	}
	if got := wh.Vals[0].Quantile(1); got != 8 {
		t.Fatalf("oldest resident window sample = %v, want 8", got)
	}
	if m := s.HistogramWindow("lat", 0); m.Count != maxWindows {
		t.Fatalf("merged count = %d, want %d", m.Count, maxWindows)
	}
}

func TestWindowSnapshotMergeDifferentBoundaries(t *testing.T) {
	// Node A's snapshot was taken two buckets before node B's: merged
	// series stay bucket-aligned, overlapping buckets add, and buckets
	// only one side sealed keep that side's value.
	a := Snapshot{
		WidthNS:        int64(time.Millisecond),
		CounterWindows: map[string]Ring[int64]{"ops": {End: 10, Vals: []int64{1, 2, 3}}},
		HistogramWindows: map[string]Ring[HistogramSnapshot]{"lat": {End: 10, Vals: []HistogramSnapshot{
			{Count: 1, Sum: 5, Min: 5, Max: 5, Samples: []float64{5}},
		}}},
	}
	b := Snapshot{
		WidthNS:        int64(time.Millisecond),
		CounterWindows: map[string]Ring[int64]{"ops": {End: 12, Vals: []int64{10, 20, 30}}},
		HistogramWindows: map[string]Ring[HistogramSnapshot]{"lat": {End: 12, Vals: []HistogramSnapshot{
			{Count: 1, Sum: 7, Min: 7, Max: 7, Samples: []float64{7}},
			{},
			{Count: 1, Sum: 9, Min: 9, Max: 9, Samples: []float64{9}},
		}}},
	}
	a.Merge(b)
	ser := a.CounterWindows["ops"]
	if ser.End != 12 || !reflect.DeepEqual(ser.Vals, []int64{1, 2, 13, 20, 30}) {
		t.Fatalf("merged = end %d vals %v, want end 12 vals [1 2 13 20 30]", ser.End, ser.Vals)
	}
	wh := a.HistogramWindows["lat"]
	// a's single window covers bucket 10 only; union span is 10..12.
	if wh.End != 12 || len(wh.Vals) != 3 {
		t.Fatalf("merged hist end %d len %d, want end 12 len 3", wh.End, len(wh.Vals))
	}
	// Bucket 10 was sealed by both nodes: the windows merge.
	if w := wh.Vals[0]; w.Count != 2 || w.Min != 5 || w.Max != 7 {
		t.Fatalf("overlap window = %+v, want merged count 2 min 5 max 7", w)
	}
	if w := wh.Vals[2]; w.Count != 1 || w.Quantile(1) != 9 {
		t.Fatalf("b-only window = %+v, want count 1 sample 9", w)
	}
}

func TestWindowSnapshotMergeWidthMismatch(t *testing.T) {
	a := Snapshot{
		WidthNS:        int64(time.Millisecond),
		CounterWindows: map[string]Ring[int64]{"ops": {End: 1, Vals: []int64{4}}},
	}
	b := Snapshot{
		WidthNS:        int64(2 * time.Millisecond),
		CounterWindows: map[string]Ring[int64]{"ops": {End: 1, Vals: []int64{9}}},
	}
	a.Merge(b) // different widths cannot align: a unchanged
	if got := a.CounterDelta("ops", 0); got != 4 {
		t.Fatalf("after mismatched merge delta = %d, want 4", got)
	}
	var zero Snapshot
	zero.Merge(b) // zero accumulator adopts the other side wholesale
	if got := zero.CounterDelta("ops", 0); got != 9 || zero.WidthNS != b.WidthNS {
		t.Fatalf("zero merge = delta %d width %d, want 9 and %d", got, zero.WidthNS, b.WidthNS)
	}
	a.Merge(Snapshot{}) // disabled snapshots contribute nothing
	if got := a.CounterDelta("ops", 0); got != 4 {
		t.Fatalf("after empty merge delta = %d, want 4", got)
	}
}

func TestWindowSnapshotWireRoundTrip(t *testing.T) {
	r, clk := newWindowedRegistry(t)
	c := r.Counter("ops")
	g := r.Gauge("depth")
	h := r.Histogram("lat")
	r.Snapshot()
	for i := 0; i < 3; i++ {
		c.Add(int64(i + 1))
		g.Set(int64(10 * (i + 1)))
		h.RecordValue(float64(i))
		clk.advance(time.Millisecond)
		r.Snapshot()
	}
	s := r.Snapshot()
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got Snapshot
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
	// Corrupt inputs must error, not panic.
	for _, bad := range [][]byte{nil, {99}, blob[:len(blob)-1], append(append([]byte(nil), blob...), 0)} {
		var ws Snapshot
		if err := ws.UnmarshalBinary(bad); err == nil {
			t.Fatalf("unmarshal(%d bytes) succeeded on corrupt input", len(bad))
		}
	}
}

func TestWindowBaselineEagerAtClockWiring(t *testing.T) {
	r := New(1)
	clk := &winClock{}
	r.SetWindowClock(clk.read) // baselines immediately, no explicit tick
	c := r.Counter("ops")
	c.Add(5) // all activity inside bucket 0, before any periodic tick
	clk.advance(time.Millisecond)
	r.Snapshot() // the node's FIRST periodic tick
	if got := r.Snapshot().CounterDelta("ops", 0); got != 5 {
		t.Fatalf("pre-first-tick activity lost to the baseline: delta = %d, want 5", got)
	}
}

func TestSetWindowWidthResetsSealedState(t *testing.T) {
	r, clk := newWindowedRegistry(t)
	c := r.Counter("ops")
	h := r.Histogram("lat")
	c.Add(3)
	h.RecordValue(7)
	clk.advance(2 * time.Millisecond)
	r.Snapshot()
	if s := r.Snapshot(); len(s.CounterWindows) != 1 || len(s.HistogramWindows) != 1 {
		t.Fatalf("pre-change snapshot = %+v, want one sealed counter and histogram", s)
	}

	// Same width is a no-op: sealed state survives.
	r.SetWindowWidth(DefaultWindowWidth)
	if s := r.Snapshot(); len(s.CounterWindows) != 1 {
		t.Fatal("same-width SetWindowWidth discarded sealed state")
	}

	// A real change discards old-width rings (their bucket numbering would
	// misalign on merge) and re-baselines at the current cumulative values.
	r.SetWindowWidth(50 * time.Microsecond)
	if s := r.Snapshot(); len(s.CounterWindows) != 0 || len(s.HistogramWindows) != 0 {
		t.Fatalf("post-change snapshot = %+v, want empty", s)
	}
	c.Add(2)
	clk.advance(100 * time.Microsecond)
	r.Snapshot()
	s := r.Snapshot()
	if got := s.CounterDelta("ops", 0); got != 2 {
		t.Fatalf("post-change delta = %d, want 2 (re-baselined, not counted from zero)", got)
	}
	if s.WidthNS != int64(50*time.Microsecond) {
		t.Fatalf("snapshot width = %d, want %d", s.WidthNS, int64(50*time.Microsecond))
	}
}

func TestWindowsDisabled(t *testing.T) {
	r := New(1) // no clock attached
	r.Counter("ops").Add(5)
	r.Histogram("lat").RecordValue(1)
	r.Snapshot()
	if s := r.Snapshot(); s.WidthNS != 0 || len(s.CounterWindows) != 0 || len(s.HistogramWindows) != 0 {
		t.Fatalf("clockless snapshot = %+v, want empty", s)
	}

	r2, clk := newWindowedRegistry(t)
	r2.SetWindowWidth(0) // explicit disable
	r2.Counter("ops").Add(5)
	clk.advance(time.Millisecond)
	r2.Snapshot()
	if s := r2.Snapshot(); s.WidthNS != 0 || len(s.CounterWindows) != 0 {
		t.Fatalf("width-0 snapshot = %+v, want empty", s)
	}
	if r2.WindowWidth() != 0 {
		t.Fatalf("WindowWidth = %v, want 0", r2.WindowWidth())
	}
}
