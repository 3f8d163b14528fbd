package bench

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"rstore/internal/telemetry"
)

func TestNewReportExtractsNumericCells(t *testing.T) {
	tbl := telemetry.NewTable("demo", "size", "latency", "gbps", "speedup", "note")
	tbl.AddRow("128KiB", 1270*time.Nanosecond, 705.23, 8, "ok")
	tbl.AddRow("1MiB", 2*time.Millisecond, 12.5, "9x", "n/a")
	rep := NewReport("e1", tbl)

	if rep.Experiment != "e1" || rep.Title != "demo" {
		t.Fatalf("header = %q/%q", rep.Experiment, rep.Title)
	}
	// Row 1: latency (in ns), gbps (bare float), speedup (an int); row 2:
	// latency, gbps. Strings are labels even when they start with a digit
	// ("9x") — nothing is parsed back out of rendered text — and the first
	// column is config, never a metric.
	want := []Metric{
		{Name: "latency", Value: 1270, Unit: "ns", Config: "128KiB"},
		{Name: "gbps", Value: 705.23, Config: "128KiB"},
		{Name: "speedup", Value: 8, Config: "128KiB"},
		{Name: "latency", Value: 2e6, Unit: "ns", Config: "1MiB"},
		{Name: "gbps", Value: 12.5, Config: "1MiB"},
	}
	if len(rep.Metrics) != len(want) {
		t.Fatalf("metrics = %+v, want %d entries", rep.Metrics, len(want))
	}
	for i, m := range rep.Metrics {
		if m != want[i] {
			t.Errorf("metric[%d] = %+v, want %+v", i, m, want[i])
		}
	}
}

func TestReportWriteRoundTrips(t *testing.T) {
	tbl := telemetry.NewTable("tiny", "cfg", "v")
	tbl.AddRow("a", 42.0)
	dir := t.TempDir()
	path, err := NewReport("a3", tbl).Write(dir)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if got, want := path, dir+"/BENCH_A3.json"; got != want {
		t.Fatalf("path = %q, want %q", got, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if rep.Experiment != "a3" || len(rep.Metrics) != 1 || rep.Metrics[0].Value != 42 {
		t.Fatalf("round-trip = %+v", rep)
	}
}
