package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs every workload at a few hundred ops, both the end-to-end
// run and the traced one, and checks the benchmark's contract: every named
// metric is emitted once, with a unit and a finite value; the names are
// well formed and are exactly the lists in BENCHMARK.json; and the
// workloads whose outcome is specified on virtual time alone repeat their
// counts and modeled throughput exactly under the same seed. It asserts
// nothing about host time, so it cannot flake under load.
func TestSmoke(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	checkSpec(t, spec)

	ctx := context.Background()
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			cfg := runConfig{wl: wl, seed: 1, quick: true, outDir: t.TempDir()}
			e2e, err := runEndToEnd(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, e2e, endToEnd)

			traced, err := runTraced(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, traced, perLayer)
			var tf traceFile
			if err := readJSON(filepath.Join(cfg.outDir, "trace_"+wl.name+".json"), &tf); err != nil {
				t.Fatal(err)
			}
			roots := 0
			for _, sp := range tf.Spans {
				if sp.Parent == -1 {
					roots++
				}
			}
			if roots != tf.TracedOps || roots == 0 {
				t.Errorf("span file has %d root spans for %d traced ops", roots, tf.TracedOps)
			}

			if !wl.deterministic {
				return
			}
			again, err := runEndToEnd(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"wire_ops_per_op", "wire_bytes_per_op", "model_kops_per_s"} {
				if a, b := e2e.Metrics[name].Value, again.Metrics[name].Value; a != b {
					t.Errorf("%s differs between two runs of seed %d: %v vs %v", name, cfg.seed, a, b)
				}
			}
		})
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, spec has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.Name)
		case m.Unit != d.Unit || m.Unit == "":
			t.Errorf("metric %s has unit %q, spec says %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is not finite: %v", d.Name, m.Value)
		}
	}
	if res.Attempted < 1 {
		t.Errorf("attempted = %d", res.Attempted)
	}
}

// checkSpec holds BENCHMARK.json to the tables in spec.go and
// workloads.go: same names, units and directions, in the same order.
func checkSpec(t *testing.T, spec benchmarkSpec) {
	t.Helper()
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if got := spec.Workloads[i]; got.Name != wl.name || got.Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, got.Name, got.Why, wl.name, wl.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the benchmark %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(kind string, got metricDef, want metricDef) {
		if got != want {
			t.Errorf("%s metric: BENCHMARK.json says %+v, the benchmark %+v", kind, got, want)
		}
		if !metricName.MatchString(want.Name) || seen[want.Name] {
			t.Errorf("%s metric name %q is malformed or repeated", kind, want.Name)
		}
		seen[want.Name] = true
	}
	for i, d := range endToEnd {
		m := spec.EndToEnd[i]
		check("end-to-end", metricDef{m.Name, m.Unit, m.Better}, d)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v", m.Name, m.Bound)
		}
	}
	for i, d := range perLayer {
		m := spec.PerLayer[i]
		check("per-layer", metricDef{m.Name, m.Unit, m.Better}, d)
	}
}

// TestCompare checks -compare's verdicts on a synthetic pair.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerSec float64, failed int) string {
		res := &result{Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: map[string]metric{}}
		for _, d := range endToEnd {
			res.set(endToEnd, d.Name, 1)
		}
		res.set(endToEnd, "host_ops_per_s", opsPerSec)
		data, err := json.Marshal(summary{Workloads: map[string]*result{"read_small": res}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1000, 0)
	spec := filepath.Join("..", "BENCHMARK.json")
	for _, tc := range []struct {
		name      string
		opsPerSec float64
		failed    int
		want      int
	}{
		{"same", 1000, 0, 0},
		{"faster", 2000, 0, 0},
		{"slower", 500, 0, 1},
		{"failing", 1000, 5, 1},
	} {
		got, err := compareFiles(io.Discard, spec, base, write(tc.name+".json", tc.opsPerSec, tc.failed))
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: compare exit %d, want %d", tc.name, got, tc.want)
		}
	}
}
