package telemetry

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"rstore/internal/simnet"
)

func TestCounterConcurrent(t *testing.T) {
	r := New(1)
	c := r.Counter("ops")
	var wg sync.WaitGroup
	const goroutines, per = 16, 1000
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestRegistryDisable(t *testing.T) {
	r := New(1)
	c := r.Counter("ops")
	g := r.Gauge("depth")
	h := r.Histogram("lat")
	c.Inc()
	g.Set(7)
	h.RecordValue(1)

	r.SetEnabled(false)
	c.Inc()
	g.Set(99)
	g.Add(1)
	h.RecordValue(2)
	if c.Value() != 1 || g.Value() != 7 || h.Count() != 1 {
		t.Fatalf("disabled registry mutated: c=%d g=%d h=%d", c.Value(), g.Value(), h.Count())
	}

	r.SetEnabled(true)
	c.Inc()
	if c.Value() != 2 {
		t.Fatalf("re-enabled counter = %d, want 2", c.Value())
	}
}

func TestRegistryReturnsSameMetric(t *testing.T) {
	r := New(1)
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter not memoized")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Fatal("Gauge not memoized")
	}
	if r.Histogram("x") != r.Histogram("x") {
		t.Fatal("Histogram not memoized")
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram: min=%v max=%v mean=%v, want zeros", h.Min(), h.Max(), h.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	snap := h.Snapshot()
	if snap.Quantile(0.5) != 0 || snap.Mean() != 0 {
		t.Fatal("empty snapshot quantile/mean nonzero")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.RecordValue(42)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("Quantile(%v) = %v, want 42", q, got)
		}
	}
	if h.Min() != 42 || h.Max() != 42 || h.Mean() != 42 {
		t.Fatalf("single-sample stats wrong: min=%v max=%v mean=%v", h.Min(), h.Max(), h.Mean())
	}
}

func TestHistogramQuantileClamped(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.RecordValue(float64(i))
	}
	if got := h.Quantile(-0.5); got != 1 {
		t.Fatalf("Quantile(-0.5) = %v, want 1", got)
	}
	if got := h.Quantile(2); got != 100 {
		t.Fatalf("Quantile(2) = %v, want 100", got)
	}
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Fatalf("Quantile(NaN) = %v, want 0", got)
	}
	if got := h.Quantile(0.5); got != 50 {
		t.Fatalf("Quantile(0.5) = %v, want 50", got)
	}
}

func TestHistogramNegativeValues(t *testing.T) {
	var h Histogram
	h.RecordValue(-5)
	h.RecordValue(3)
	if h.Min() != -5 || h.Max() != 3 {
		t.Fatalf("min=%v max=%v, want -5 / 3", h.Min(), h.Max())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 1; i <= 50; i++ {
		a.RecordValue(float64(i))
	}
	for i := 51; i <= 100; i++ {
		b.RecordValue(float64(i))
	}
	a.Merge(&b)
	if a.Count() != 100 {
		t.Fatalf("merged count = %d, want 100", a.Count())
	}
	if a.Min() != 1 || a.Max() != 100 {
		t.Fatalf("merged min/max = %v/%v, want 1/100", a.Min(), a.Max())
	}
	if a.Sum() != 5050 {
		t.Fatalf("merged sum = %v, want 5050", a.Sum())
	}
	med := a.Quantile(0.5)
	if med < 40 || med > 60 {
		t.Fatalf("merged median = %v, want ~50", med)
	}
	// b is untouched.
	if b.Count() != 50 {
		t.Fatalf("merge mutated source: count = %d", b.Count())
	}
}

func TestHistogramMergeEmptyCases(t *testing.T) {
	var a, b Histogram
	a.Merge(&b) // empty into empty
	if a.Count() != 0 {
		t.Fatal("empty merge changed count")
	}
	b.RecordValue(7)
	a.Merge(&b) // non-empty into empty
	if a.Count() != 1 || a.Min() != 7 || a.Max() != 7 {
		t.Fatalf("merge into empty: count=%d min=%v max=%v", a.Count(), a.Min(), a.Max())
	}
	var c Histogram
	a.Merge(&c) // empty into non-empty
	if a.Count() != 1 || a.Min() != 7 {
		t.Fatal("merging empty histogram changed stats")
	}
	a.Merge(&a) // self-merge is a no-op
	if a.Count() != 1 {
		t.Fatal("self-merge doubled count")
	}
}

func TestHistogramMergeLargeReservoirs(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 3*reservoirSize; i++ {
		a.RecordValue(10)
		b.RecordValue(20)
	}
	a.Merge(&b)
	if a.Count() != int64(6*reservoirSize) {
		t.Fatalf("count = %d", a.Count())
	}
	snap := a.Snapshot()
	if len(snap.Samples) > reservoirSize {
		t.Fatalf("reservoir overflow: %d samples", len(snap.Samples))
	}
	// Streams are equal length, so the merged reservoir should be close
	// to half 10s, half 20s.
	var tens int
	for _, v := range snap.Samples {
		if v == 10 {
			tens++
		}
	}
	frac := float64(tens) / float64(len(snap.Samples))
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("merged reservoir skewed: %.0f%% from stream a", frac*100)
	}
}

func TestSnapshotMergeAndString(t *testing.T) {
	r1, r2 := New(1), New(2)
	r1.Counter("ops").Add(3)
	r2.Counter("ops").Add(4)
	r2.Counter("errs").Inc()
	r1.Gauge("depth").Set(5)
	r2.Gauge("depth").Set(7)
	r1.Histogram("lat").RecordValue(100)
	r2.Histogram("lat").RecordValue(200)

	s := r1.Snapshot()
	s.Merge(r2.Snapshot())
	if s.Counter("ops") != 7 || s.Counter("errs") != 1 {
		t.Fatalf("merged counters: ops=%d errs=%d", s.Counter("ops"), s.Counter("errs"))
	}
	if s.Gauge("depth") != 12 {
		t.Fatalf("merged gauge = %d, want 12", s.Gauge("depth"))
	}
	h := s.Histograms["lat"]
	if h.Count != 2 || h.Min != 100 || h.Max != 200 {
		t.Fatalf("merged hist: %+v", h)
	}
	out := s.String()
	if !strings.Contains(out, "counter ops = 7") || !strings.Contains(out, "hist lat n=2") {
		t.Fatalf("String output missing entries:\n%s", out)
	}

	// Zero snapshot is a valid accumulator.
	var acc Snapshot
	acc.Merge(s)
	if acc.Counter("ops") != 7 {
		t.Fatal("zero-snapshot merge failed")
	}
}

func TestSnapshotWireRoundTrip(t *testing.T) {
	r := New(3)
	r.Counter("rdma.ops").Add(1234)
	r.Gauge("arena.bytes").Set(-55)
	h := r.Histogram("lat")
	for i := 0; i < 2*reservoirSize; i++ {
		h.RecordValue(float64(i))
	}
	s := r.Snapshot()
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Counter("rdma.ops") != 1234 || got.Gauge("arena.bytes") != -55 {
		t.Fatalf("round trip lost scalars: %+v", got)
	}
	gh := got.Histograms["lat"]
	if gh.Count != int64(2*reservoirSize) || gh.Min != 0 || gh.Max != float64(2*reservoirSize-1) {
		t.Fatalf("round trip hist summary: %+v", gh)
	}
	if len(gh.Samples) == 0 || len(gh.Samples) > wireMaxSamples {
		t.Fatalf("wire samples = %d, want 1..%d", len(gh.Samples), wireMaxSamples)
	}
	med := gh.Quantile(0.5)
	if med < float64(reservoirSize)*0.5 || med > float64(reservoirSize)*1.5 {
		t.Fatalf("wire median = %v, want ~%d", med, reservoirSize)
	}
}

func TestSnapshotWireRejectsGarbage(t *testing.T) {
	le := binary.LittleEndian
	header := func(width int64) []byte { return le.AppendUint64([]byte{snapshotWireVersion}, uint64(width)) }
	// oneCounter is a whole snapshot: one counter "x" with an n-window
	// ring, no gauges, no histograms.
	oneCounter := func(width int64, n int) []byte {
		buf := le.AppendUint32(header(width), 1)
		buf, _ = appendName(buf, "x")
		buf = le.AppendUint64(buf, 7)
		buf = append(buf, uint8(n))
		for i := 0; i < n+1; i++ { // end, then n values
			buf = le.AppendUint64(buf, 40)
		}
		return le.AppendUint64(buf, 0) // zero gauges, zero histograms
	}
	var s Snapshot
	if err := s.UnmarshalBinary(oneCounter(1000, maxWindows)); err != nil || s.CounterDelta("x", 0) != 40*maxWindows {
		t.Fatalf("full-length ring rejected: %v (%+v)", err, s)
	}
	want := s.String()
	for name, data := range map[string][]byte{
		"empty":                  nil,
		"bad version":            {99},
		"absurd counter count":   append(header(0), 0xff, 0xff, 0xff, 0xff),
		"truncated counter":      append(header(0), 1, 0, 0, 0),
		"ring over maxWindows":   oneCounter(1000, maxWindows+1),
		"negative width":         oneCounter(-1000, 2),
		"ring without a width":   oneCounter(0, 2),
		"trailing bytes":         append(oneCounter(1000, 2), 0),
		"torn inside the ring":   oneCounter(1000, 8)[:40],
		"torn in the last count": oneCounter(1000, 8)[:len(oneCounter(1000, 8))-1],
	} {
		if err := s.UnmarshalBinary(data); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
		// A failed decode leaves the receiver as it was.
		if got := s.String(); got != want || s.CounterDelta("x", 0) != 40*maxWindows {
			t.Fatalf("%s: failed decode modified the receiver:\n%s", name, got)
		}
	}
}

func TestTracerSampling(t *testing.T) {
	tr := newTracer(2, 16)
	if id, ok := tr.NewTrace(); ok || id != 0 {
		t.Fatal("disabled tracer sampled a trace")
	}
	tr.SetSampling(1)
	id, ok := tr.NewTrace()
	if !ok || id == 0 {
		t.Fatal("sampling=1 did not sample")
	}
	if id.Node() != 2 {
		t.Fatalf("trace node = %d, want 2", id.Node())
	}
	tr.SetSampling(4)
	var sampled int
	for i := 0; i < 40; i++ {
		if _, ok := tr.NewTrace(); ok {
			sampled++
		}
	}
	if sampled != 10 {
		t.Fatalf("1-in-4 sampling picked %d of 40", sampled)
	}
}

func TestTracerRingAndDump(t *testing.T) {
	tr := newTracer(1, 4)
	tr.Record(Span{Trace: 0, Name: "dropped"}) // zero trace is ignored
	for i := 1; i <= 6; i++ {
		tr.Record(Span{
			Trace:  TraceID(7),
			Name:   "op",
			StartV: simnet.VTime(i * 100),
			EndV:   simnet.VTime(i*100 + 50),
		})
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(spans))
	}
	if spans[0].StartV != 300 || spans[3].StartV != 600 {
		t.Fatalf("ring order wrong: first=%v last=%v", spans[0].StartV, spans[3].StartV)
	}
	if spans[0].Node != 1 {
		t.Fatalf("node not defaulted: %d", spans[0].Node)
	}
	var b strings.Builder
	if err := tr.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "trace 0000000000000007") || !strings.Contains(b.String(), "op") {
		t.Fatalf("dump missing content:\n%s", b.String())
	}
}

func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != 0 {
		t.Fatal("fresh context has a trace")
	}
	if WithTrace(ctx, 0) != ctx {
		t.Fatal("WithTrace(0) allocated a new context")
	}
	ctx2 := WithTrace(ctx, 99)
	if TraceFrom(ctx2) != 99 {
		t.Fatalf("TraceFrom = %v, want 99", TraceFrom(ctx2))
	}
}

func TestRecordDuration(t *testing.T) {
	var h Histogram
	h.RecordDuration(3 * time.Microsecond)
	if h.Max() != 3000 {
		t.Fatalf("RecordDuration stored %v, want 3000 ns", h.Max())
	}
}
