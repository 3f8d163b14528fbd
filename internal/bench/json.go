package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rstore/internal/telemetry"
)

// Metric is one scalar measurement lifted out of an experiment table: the
// column header names the metric, the row's first cell names the
// configuration it was measured under (transfer size, machine count, ...).
// Time-valued cells are in nanoseconds, so a run whose latency drifts
// across a rendering boundary (999us -> 1.00ms) still compares against
// older reports.
type Metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit,omitempty"`
	Config string  `json:"config,omitempty"`
}

// Report is the machine-readable form of one experiment's output — the
// bench trajectory CI archives beside the rendered tables, so regressions
// are diffable without scraping aligned-column text.
type Report struct {
	Experiment string   `json:"experiment"`
	Title      string   `json:"title"`
	Metrics    []Metric `json:"metrics"`
}

// NewReport lifts every numeric cell of tbl into a Report, reading the
// typed value the experiment handed to AddRow (telemetry.Table.Value), not
// the rendered text. Labels are skipped, and the first column is the row's
// configuration label, never a metric.
func NewReport(id string, tbl *telemetry.Table) *Report {
	rep := &Report{Experiment: id, Title: tbl.Title}
	for r, row := range tbl.Rows() {
		for c := 1; c < len(row) && c < len(tbl.Headers); c++ {
			if v, unit, ok := tbl.Value(r, c); ok {
				rep.Metrics = append(rep.Metrics, Metric{
					Name: tbl.Headers[c], Value: v, Unit: unit, Config: row[0],
				})
			}
		}
	}
	return rep
}

// Write marshals the report to dir/BENCH_<ID>.json (BENCH_E1.json,
// BENCH_A3.json, ...) and returns the path.
func (r *Report) Write(dir string) (string, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", strings.ToUpper(r.Experiment)))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
