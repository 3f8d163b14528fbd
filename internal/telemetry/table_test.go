package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 {
		t.Error("zero value not empty")
	}
	for i := 1; i <= 100; i++ {
		h.RecordValue(float64(i))
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if got := h.Mean(); got != 50.5 {
		t.Errorf("Mean = %v", got)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Quantile(0.5); math.Abs(got-50) > 2 {
		t.Errorf("p50 = %v", got)
	}
	if got := h.Quantile(1.0); got != 100 {
		t.Errorf("p100 = %v", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
}

func TestHistogramDurations(t *testing.T) {
	var h Histogram
	h.Record(2 * time.Microsecond)
	h.Record(4 * time.Microsecond)
	if got := time.Duration(h.Mean()); got != 3*time.Microsecond {
		t.Errorf("mean = %v", got)
	}
	if s := h.Summary(); !strings.Contains(s, "n=2") {
		t.Errorf("summary = %q", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.RecordValue(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 1 {
		t.Errorf("Mean = %v", h.Mean())
	}
}

func TestHistogramReservoirBeyondCapacity(t *testing.T) {
	var h Histogram
	for i := 0; i < reservoirSize*4; i++ {
		h.RecordValue(float64(i % 1000))
	}
	q := h.Quantile(0.5)
	if q < 300 || q > 700 {
		t.Errorf("p50 = %v, want near 500", q)
	}
}

// Property: mean always lies within [min, max].
func TestHistogramMeanBoundsProperty(t *testing.T) {
	fn := func(vals []float64) bool {
		var h Histogram
		any := false
		for _, v := range vals {
			// Bound magnitudes so the running sum cannot overflow.
			if math.IsNaN(v) || math.Abs(v) > 1e300 {
				continue
			}
			v = math.Mod(v, 1e12)
			h.RecordValue(v)
			any = true
		}
		if !any {
			return true
		}
		m := h.Mean()
		return m >= h.Min()-1e-9 && m <= h.Max()+1e-9
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGbps(t *testing.T) {
	if got := Gbps(1e9/8, time.Second); math.Abs(got-1) > 1e-9 {
		t.Errorf("Gbps = %v, want 1", got)
	}
	if got := Gbps(100, 0); got != 0 {
		t.Errorf("Gbps with zero duration = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("E1", "size", "latency", "gbps")
	tb.AddRow(8, 2500*time.Nanosecond, 0.5)
	tb.AddRow("1MiB", 150*time.Microsecond, 54.123)
	s := tb.String()
	if !strings.Contains(s, "== E1 ==") {
		t.Errorf("missing title: %q", s)
	}
	if !strings.Contains(s, "2.50us") {
		t.Errorf("missing formatted duration: %q", s)
	}
	if !strings.Contains(s, "54.12") {
		t.Errorf("missing formatted float: %q", s)
	}
	rows := tb.Rows()
	if len(rows) != 2 || rows[0][0] != "8" {
		t.Errorf("rows = %+v", rows)
	}
}

// A cell keeps the number AddRow was handed next to its rendered text, so
// readers never parse "2.50us" or "54.12" back into a value.
func TestTableValueIsTyped(t *testing.T) {
	tb := NewTable("typed", "label", "int", "lat", "gbps", "rate", "flag")
	tb.AddRow("1MiB", int64(7), 2500*time.Nanosecond, 54.123, Percent(0.125), true)
	if got := tb.Rows()[0]; got[2] != "2.50us" || got[3] != "54.12" || got[4] != "12.5%" {
		t.Errorf("rendered row = %q", got)
	}
	for col, want := range []struct {
		v    float64
		unit string
		ok   bool
	}{
		{0, "", false}, // a string is a label
		{7, "", true},
		{2500, "ns", true}, // not the rendered 2.50
		{54.123, "", true}, // not the rendered 54.12
		{12.5, "%", true},
		{0, "", false}, // so is a bool
	} {
		v, unit, ok := tb.Value(0, col)
		if v != want.v || unit != want.unit || ok != want.ok {
			t.Errorf("Value(0, %d) = %v %q %v, want %v %q %v", col, v, unit, ok, want.v, want.unit, want.ok)
		}
	}
}

func TestTableFooter(t *testing.T) {
	tb := NewTable("E2", "col")
	tb.AddRow(1)
	tb.Footer = "slowest op: total 10us  onesided.io=8us (80.0%)"
	s := tb.String()
	if !strings.Contains(s, "slowest op") {
		t.Errorf("missing footer: %q", s)
	}
	if !strings.HasSuffix(s, "\n") {
		t.Errorf("footer not newline-terminated: %q", s)
	}
}

func TestFmtDuration(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want string
	}{
		{500 * time.Nanosecond, "500ns"},
		{2500 * time.Nanosecond, "2.50us"},
		{1500 * time.Microsecond, "1.50ms"},
		{2 * time.Second, "2.00s"},
	}
	for _, tt := range tests {
		if got := fmtDuration(tt.d); got != tt.want {
			t.Errorf("fmtDuration(%v) = %q, want %q", tt.d, got, tt.want)
		}
	}
}
