package main

// The benchmark's frozen vocabulary: metric names, units and directions.
// BENCHMARK.json at the repo root lists the same names (plus the regression
// bounds, which live only there); bench_test.go keeps the two in step.
// Later issues cite these names verbatim, so renaming one is a benchmark
// change of its own, never part of a perf PR.

// metricDef is one named metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the system (or of the simulator) sees.
// host_*, alloc*, peak_rss_mb and setup_s are host cost; model_* is
// simulated virtual time; wire_* are exact counts. Two groups the issue
// planned here are not, because the driver's contract cannot carry them:
// failed_share is normally zero (it is the result line's failed/attempted
// pair instead), and the modeled latencies are deterministic — read_small's
// are one constant — where the contract rejects a time that reads the same
// on every run; they are loadgen.model_* in the traced run, and the
// modeled axis is held end to end by model_kops_per_s, their inverse.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"host_ops_per_s", "1/s", "higher"},
	{"host_p50_us", "us", "lower"},
	{"host_floor_us", "us", "lower"},
	{"model_kops_per_s", "kops/s", "higher"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"wire_ops_per_op", "count", "lower"},
	{"wire_bytes_per_op", "B", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// opClasses are the per-op classes of the mixed workloads, in the order
// the class.* metrics are listed. A workload's ops carry an index into
// this table; control_churn's classes are the steps of one cycle.
var opClasses = []string{
	"read", "write", "transfer", "get", "scan", "insert", "delete",
	"alloc", "map", "unmap", "free",
}

const (
	clsRead = iota
	clsWrite
	clsTransfer
	clsGet
	clsScan
	clsInsert
	clsDelete
	clsAlloc
	clsMap
	clsUnmap
	clsFree
	// clsCycle is control_churn's root class: a whole alloc..free cycle.
	// It has no class.* metric; the cycle's steps do.
	clsCycle
)

func className(c uint8) string {
	switch {
	case int(c) < len(opClasses):
		return opClasses[c]
	case c == clsCycle:
		return "cycle"
	}
	return "failed"
}

// perLayer is the traced run's vocabulary. Every workload reports every
// name; a count that does not apply to a workload (an absent op class, a
// layer it bypasses) reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo, hi := "lower", "higher"
	out := []metricDef{
		{"loadgen.host_p99_us", "us", lo},
		{"loadgen.model_p50_us", "us", lo},
		{"loadgen.model_p95_us", "us", lo},
		{"loadgen.model_p99_us", "us", lo},
		{"loadgen.model_mean_us", "us", lo},
		{"loadgen.cpu_us_per_op", "us", lo},
		{"loadgen.round_spread", "ratio", lo},
		{"loadgen.gc_cycles", "count", lo},
		{"loadgen.trace_overhead_share", "ratio", lo},
	}
	for _, c := range opClasses {
		out = append(out,
			metricDef{"class." + c + "_host_p50_us", "us", lo},
			metricDef{"class." + c + "_model_p50_us", "us", lo})
	}
	return append(out,
		metricDef{"simnet.link_ops_per_op", "count", lo},
		metricDef{"simnet.link_bytes_per_op", "B", lo},
		metricDef{"simnet.link_busy_share_max", "ratio", lo},
		metricDef{"simnet.transfer_host_ns", "ns", lo},
		metricDef{"simnet.self_host_us_per_op", "us", lo},

		metricDef{"rdma.onesided_per_op", "count", lo},
		metricDef{"rdma.atomics_per_op", "count", lo},
		metricDef{"rdma.sendrecv_per_op", "count", lo},
		metricDef{"rdma.retransmits", "count", lo},
		metricDef{"rdma.errors", "count", lo},
		metricDef{"rdma.post_host_ns", "ns", lo},
		metricDef{"rdma.post_model_ns", "ns", lo},
		metricDef{"rdma.self_host_us_per_op", "us", lo},
		metricDef{"rdma.self_model_us_per_op", "us", lo},

		metricDef{"rpc.calls_per_op", "count", lo},
		metricDef{"rpc.call_host_ns", "ns", lo},
		metricDef{"rpc.call_model_ns", "ns", lo},
		metricDef{"rpc.credit_stalls", "count", lo},
		metricDef{"rpc.call_errors", "count", lo},
		metricDef{"rpc.self_host_us_per_op", "us", lo},
		metricDef{"rpc.self_model_us_per_op", "us", lo},

		metricDef{"client.reads_per_op", "count", lo},
		metricDef{"client.writes_per_op", "count", lo},
		metricDef{"client.atomics_per_op", "count", lo},
		metricDef{"client.fragments_per_op", "count", lo},
		metricDef{"client.retries_per_op", "count", lo},
		metricDef{"client.remaps", "count", lo},
		metricDef{"client.io_failures", "count", lo},
		metricDef{"client.ctrl_model_us_per_op", "us", lo},
		metricDef{"client.self_host_us_per_op", "us", lo},
		metricDef{"client.self_model_us_per_op", "us", lo},

		metricDef{"master.allocs_per_op", "count", lo},
		metricDef{"master.maps_per_op", "count", lo},
		metricDef{"master.frees_per_op", "count", lo},
		metricDef{"master.repl_records_per_op", "count", lo},
		metricDef{"master.heartbeats", "count", lo},
		metricDef{"master.self_host_us_per_op", "us", lo},

		metricDef{"memserver.served_ops_per_op", "count", lo},
		metricDef{"memserver.served_bytes_per_op", "B", lo},

		metricDef{"txn.commits_per_op", "count", lo},
		metricDef{"txn.abort_share", "ratio", lo},
		metricDef{"txn.lock_breaks", "count", lo},
		metricDef{"txn.commit_model_p50_us", "us", lo},
		metricDef{"txn.commit_model_p99_us", "us", lo},
		metricDef{"txn.self_host_us_per_op", "us", lo},
		metricDef{"txn.self_model_us_per_op", "us", lo},
		metricDef{"txn.predicted_over_measured", "ratio", lo},

		metricDef{"index.lookups_per_op", "count", lo},
		metricDef{"index.cache_hit_share", "ratio", hi},
		metricDef{"index.bloom_shortcut_share", "ratio", hi},
		metricDef{"index.retraversals_per_op", "count", lo},
		metricDef{"index.splits", "count", lo},
		metricDef{"index.depth_mean", "count", lo},
		metricDef{"index.height", "count", lo},
		metricDef{"index.self_host_us_per_op", "us", lo},
		metricDef{"index.self_model_us_per_op", "us", lo},
		metricDef{"index.predicted_over_measured", "ratio", lo},

		metricDef{"kvstore.get_host_ns", "ns", lo},
		metricDef{"kvstore.get_model_ns", "ns", lo},
		metricDef{"kvstore.put_host_ns", "ns", lo},
		metricDef{"kvstore.put_model_ns", "ns", lo},

		metricDef{"telemetry.off_speedup", "ratio", lo},
		metricDef{"telemetry.snapshot_host_us", "us", lo},
	)
}
