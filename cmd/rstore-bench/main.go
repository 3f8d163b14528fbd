// Command rstore-bench regenerates the paper's evaluation tables and
// figures on the simulated testbed.
//
// Usage:
//
//	rstore-bench -exp e1          # one experiment
//	rstore-bench -exp all         # everything (takes a few minutes)
//	rstore-bench -exp e1 -json    # also emit BENCH_E1.json (see -out)
//
// Experiment IDs follow DESIGN.md's per-experiment index; -list prints them.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"rstore/internal/bench"
	"rstore/internal/telemetry"
)

type experiment struct {
	id   string
	desc string
	run  func(context.Context) (*telemetry.Table, error)
}

func experiments() []experiment {
	return []experiment{
		{"e1", "read/write latency vs transfer size", bench.E1Latency},
		{"e2", "aggregate bandwidth vs machines", bench.E2Bandwidth},
		{"e3", "control path vs data path", bench.E3ControlPath},
		{"e4", "PageRank vs message passing", func(ctx context.Context) (*telemetry.Table, error) {
			return bench.E4PageRank(ctx, nil)
		}},
		{"e5", "KV sort vs MapReduce", func(ctx context.Context) (*telemetry.Table, error) {
			return bench.E5Sort(ctx, nil)
		}},
		{"e6", "notification latency", bench.E6Notify},
		{"e7", "small-op throughput vs clients", bench.E7MultiClient},
		{"e8", "repair MTTR vs region size", bench.E8RepairMTTR},
		{"e9", "master failover MTTR vs lease term", bench.E9FailoverMTTR},
		{"e10", "optimistic txn abort rate vs contention", bench.E10TxnContention},
		{"e11", "ordered index: point vs range vs skew", bench.E11Index},
		{"a1", "ablation: stripe width", bench.A1Stripe},
		{"a2", "ablation: replication", bench.A2Replication},
		{"a3", "ablation: QP sharing", bench.A3QPSharing},
		{"a4", "KV store on the memory API", bench.A4KVStore},
	}
}

// idSummary compresses the experiment table's ids into the form help text
// and README quote — "e1..e11, a1..a4": one first..last run per letter, in
// table order — so a new experiment is documented by being added.
func idSummary(exps []experiment) string {
	var runs []string
	for i := 0; i < len(exps); {
		j := i
		for j+1 < len(exps) && exps[j+1].id[0] == exps[i].id[0] {
			j++
		}
		if j == i {
			runs = append(runs, exps[i].id)
		} else {
			runs = append(runs, exps[i].id+".."+exps[j].id)
		}
		i = j + 1
	}
	return strings.Join(runs, ", ")
}

func run() error {
	exps := experiments()
	exp := flag.String("exp", "all", "experiment id ("+idSummary(exps)+") or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonOut := flag.Bool("json", false, "also write BENCH_<ID>.json per experiment (machine-readable trajectory)")
	outDir := flag.String("out", ".", "directory for -json reports")
	flag.Parse()

	if *list {
		for _, e := range exps {
			fmt.Printf("%-4s %s\n", e.id, e.desc)
		}
		return nil
	}

	ctx := context.Background()
	ran := false
	for _, e := range exps {
		if *exp != "all" && *exp != e.id {
			continue
		}
		ran = true
		fmt.Printf("# %s: %s\n", e.id, e.desc)
		tbl, err := e.run(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Println(tbl.String())
		if *jsonOut {
			path, err := bench.NewReport(e.id, tbl).Write(*outDir)
			if err != nil {
				return fmt.Errorf("%s: %w", e.id, err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (use -list)", *exp)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rstore-bench:", err)
		os.Exit(1)
	}
}
