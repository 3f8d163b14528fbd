package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json this package reads: -compare
// the workloads and the end-to-end metrics with their direction and
// regression bound, the smoke test all of it.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

const (
	// setupFloorSeconds widens setup_s's bound for short set-ups: it may
	// worsen by its relative bound or by this much, whichever is larger.
	setupFloorSeconds = 0.25
	// failedShareSlack is how much failed/attempted may rise, absolute.
	failedShareSlack = 0.001
)

// compareFiles prints, per workload and end-to-end metric, both values,
// how much worse (+) or better (-) b is than a as a share of a, and the
// bound; it returns 1 when any metric of b is worse than a by more than
// its bound. It is how two runs of the same code are shown to agree and
// how a later PR reads its before/after.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (int, error) {
	var spec benchmarkSpec
	var a, b summary
	if err := readJSON(specPath, &spec); err != nil {
		return 0, err
	}
	if err := readJSON(aPath, &a); err != nil {
		return 0, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return 0, err
	}
	if a.Trace || b.Trace {
		return 0, fmt.Errorf("-compare reads end-to-end summaries, not -trace 1 ones")
	}
	excess := 0
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			continue // a single-workload summary compares what it has
		}
		fmt.Fprintf(w, "== %s\n", wl.Name)
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			worse := vb - va
			if m.Better == "higher" {
				worse = va - vb
			}
			allowed := m.Bound * va
			if m.Name == "setup_s" && allowed < setupFloorSeconds {
				allowed = setupFloorSeconds
			}
			verdict := "ok"
			if worse > allowed {
				verdict = "EXCESS"
				excess++
			}
			fmt.Fprintf(w, "   %-20s %14.4f %14.4f %-7s %+7.2f%%  bound %5.1f%%  %s\n",
				m.Name, va, vb, m.Unit, 100*ratio(worse, va), 100*m.Bound, verdict)
		}
		fa := ratio(float64(ra.Failed), float64(ra.Attempted))
		fb := ratio(float64(rb.Failed), float64(rb.Attempted))
		verdict := "ok"
		if fb > fa+failedShareSlack {
			verdict = "EXCESS"
			excess++
		}
		fmt.Fprintf(w, "   %-20s %14.4f %14.4f %-7s %+7.4f   bound +%.3f  %s\n",
			"failed_share", fa, fb, "ratio", fb-fa, failedShareSlack, verdict)
	}
	if excess > 0 {
		fmt.Fprintf(w, "%d metric(s) worse than their bound\n", excess)
		return 1, nil
	}
	fmt.Fprintln(w, "every metric within its bound")
	return 0, nil
}
