// Command benchmark is the repository's benchmark: five closed-loop
// workloads on an in-process cluster, measured on two axes that are never
// mixed — host time (what the Go code costs to run) and modeled time (the
// virtual time the simulated fabric reports) — plus an outside-in ladder
// that splits each into per-layer shares. See README.md beside this file
// and BENCHMARK.json at the repo root.
//
//	go run ./benchmark                              all workloads, end to end
//	go run ./benchmark -workload read_small -seed 7 one workload
//	go run ./benchmark -trace 1                     per-layer run, span files in -out
//	go run ./benchmark -json a.json ; ... -json b.json
//	go run ./benchmark -compare a.json b.json       before/after against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// summary is the JSON form of one invocation: what -json writes, what
// -compare reads, and the last line of an all-workloads run. Claim stays
// null: this benchmark defines the yardstick and claims no gain.
type summary struct {
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
	Claim     *string            `json:"claim"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "workload seed: same seed, same op sequence")
		seconds      = flag.Int("seconds", 10, "length of the timed phase on the reference box; fixes the op count")
		trace        = flag.Int("trace", 0, "1: traced per-layer run (spans, counters, ladder) instead of the end-to-end run")
		outDir       = flag.String("out", "benchmark/out", "directory for span files")
		jsonPath     = flag.String("json", "", "also write the run's summary to this file")
		specPath     = flag.String("spec", "BENCHMARK.json", "benchmark spec holding the regression bounds (-compare)")
		compare      = flag.Bool("compare", false, "compare two -json summaries: -compare a.json b.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two summary files")
			return 2
		}
		code, err := compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		return code
	}
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -h")
		return 2
	}

	selected := workloads
	if *workloadName != "all" {
		wl, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []workloadDef{wl}
	}

	// The whole process runs on one P. The host axis then measures the CPU
	// the simulator spends per op, with goroutine hand-offs as direct
	// switches; on two Ps the same hand-offs are cross-core wake-ups whose
	// latency depends on what else the (shared) host is doing, and moved
	// host_p50_us by up to 50 % between runs of the same binary.
	runtime.GOMAXPROCS(1)

	ctx := context.Background()
	sum := summary{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Workloads: map[string]*result{}}
	allCorrect := true
	var last *result
	for _, wl := range selected {
		cfg := runConfig{wl: wl, seed: *seed, seconds: *seconds, outDir: *outDir}
		runner, defs := runEndToEnd, endToEnd
		if sum.Trace {
			runner, defs = runTraced, perLayer
		}
		res, err := runner(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printResult(wl, res, defs)
		sum.Workloads[wl.name] = res
		allCorrect = allCorrect && res.Correct
		last = res
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(sum, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: write summary:", err)
			return 1
		}
	}
	// The last line of standard output is the machine-readable result:
	// one workload's result object, or the whole summary.
	var line []byte
	if len(selected) == 1 {
		line, _ = json.Marshal(last) // plain numbers and strings: cannot fail
	} else {
		line, _ = json.Marshal(sum)
	}
	fmt.Println(string(line))
	if !allCorrect {
		return 1
	}
	return 0
}

// printResult renders one workload's metrics by name with units; the
// percentiles carry the sample count they were read from.
func printResult(wl workloadDef, res *result, defs []metricDef) {
	fmt.Printf("== %s: %s\n   %d closed-loop worker(s); %d ops attempted, %d failed, failed_share %.4f\n",
		wl.name, wl.why, wl.workers, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	if !res.Correct {
		fmt.Printf("   INCORRECT: %s\n", res.note)
	}
	for _, d := range defs {
		name := d.Name
		m := res.Metrics[name]
		suffix := ""
		if strings.HasPrefix(name, "host_") || strings.HasPrefix(name, "loadgen.host_") || strings.HasPrefix(name, "loadgen.model_") {
			suffix = fmt.Sprintf("  (n=%d)", res.samples)
		}
		fmt.Printf("   %-36s %16.4f %s%s\n", name, m.Value, m.Unit, suffix)
	}
}
