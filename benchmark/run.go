package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// Run shape, the same for every workload: set-up (several times, the
// median is setup_s) -> untimed warm-up -> timedRounds rounds of a fixed
// op count -> verification. host_* metrics are the median over the
// rounds; modeled, count and allocation metrics are computed over all
// rounds together.
const (
	// timedRounds: disturbances on the shared host come in bursts of a
	// second or two, so eight short rounds and their median hold steadier
	// than four long ones.
	timedRounds = 8
	// setupReps is how often set-up runs in one invocation; the first
	// setupReps-1 instances are closed again. Cluster boot rides wall-clock
	// timers (dial retries, heartbeat-derived waits) and varies several-fold
	// from one boot to the next, hence five and their median.
	setupReps = 5
	// warmDivisor sizes the warm-up as a share of the timed op count
	// (about half a second on the reference box at the default -seconds).
	warmDivisor = 20
	// traceShare is the traced run's round size as a share of the timed
	// op count: three untraced reference rounds, one traced, one with
	// telemetry off.
	traceShare      = 5
	referenceRounds = 3
	spansPerOp      = 10 // span buffer capacity per planned op
	smokeOps        = 240
)

type runConfig struct {
	wl      workloadDef
	seed    int64
	seconds int
	// quick is the smoke test's scale: smokeOps timed ops, one set-up,
	// small preloads, short ladder batches.
	quick  bool
	outDir string
}

func (c runConfig) ops() int {
	if c.quick {
		return smokeOps
	}
	return c.wl.rate * c.seconds
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome. Its first four fields are the result
// line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples int    // successful timed ops behind the percentiles
	note    string // why Correct is false
}

func (r *result) set(defs []metricDef, name string, v float64) {
	if v == 0 {
		v = 0 // -0 prints as "-0"
	}
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the spec") // a bug in this package
}

// boot sets the workload up and warms it, returning the instance, its
// workers (sample capacity for `capacity` timed ops each) and how long
// set-up took.
func boot(ctx context.Context, cfg runConfig, capacity int) (instance, []*worker, time.Duration, error) {
	start := time.Now()
	inst, err := cfg.wl.setup(ctx, cfg.seed, cfg.quick)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: set-up: %w", cfg.wl.name, err)
	}
	warmOps := cfg.ops() / warmDivisor / cfg.wl.workers
	if warmOps < 1 {
		warmOps = 1
	}
	warm := make([]*worker, cfg.wl.workers)
	for i := range warm {
		warm[i] = newWorker(i, warmOps)
	}
	runRound(ctx, inst, warm, warmOps, time.Minute)
	took := time.Since(start)
	workers := make([]*worker, cfg.wl.workers)
	for i := range workers {
		workers[i] = newWorker(i, capacity)
	}
	return inst, workers, took, nil
}

// roundBudget is a round's share of -seconds; runRound gives up at three
// times that. The smoke test's few ops get a budget no loaded box misses.
func roundBudget(cfg runConfig, rounds int) time.Duration {
	if cfg.quick {
		return time.Minute
	}
	return time.Duration(cfg.seconds) * time.Second / time.Duration(rounds)
}

func finish(ctx context.Context, inst instance, res *result, rounds []round) {
	for _, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	opFailures := res.Failed
	mismatches, err := inst.verify(ctx)
	res.Failed += mismatches
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	switch {
	case err != nil:
		res.note = "verification: " + err.Error()
	case res.Failed > 0:
		res.note = fmt.Sprintf("of %d ops, %d failed and the final state is off by %d", res.Attempted, opFailures, mismatches)
	}
	res.Correct = res.note == ""
}

// runEndToEnd is the untraced run: every end-to-end metric, nothing else.
func runEndToEnd(ctx context.Context, cfg runConfig) (*result, error) {
	perWorker := cfg.ops() / timedRounds / cfg.wl.workers
	if perWorker < 1 {
		perWorker = 1
	}
	var (
		inst    instance
		workers []*worker
		setups  []float64
	)
	reps := setupReps
	if cfg.quick {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		if inst != nil {
			inst.close()
			debug.FreeOSMemory() // so peak_rss_mb is one instance's, not the sum
		}
		var took time.Duration
		var err error
		inst, workers, took, err = boot(ctx, cfg, perWorker*timedRounds)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer inst.close()
	p := inst.parts()

	host0, cluster0 := readHostCounters(), readClusterCounters(p)
	rounds := make([]round, 0, timedRounds)
	for r := 0; r < timedRounds; r++ {
		rounds = append(rounds, runRound(ctx, inst, workers, perWorker, roundBudget(cfg, timedRounds)))
	}
	host1, cluster1 := readHostCounters(), readClusterCounters(p)

	res := &result{Metrics: map[string]metric{}}
	finish(ctx, inst, res, rounds)

	var opsPerSec, p50, floor []float64
	for _, r := range rounds {
		h := samples(workers, []round{r}, hostCol, -1)
		opsPerSec = append(opsPerSec, r.opsPerSec())
		p50 = append(p50, quantile(h, 0.50)/1e3)
		floor = append(floor, quantile(h, 0.10)/1e3)
		res.samples += len(h)
	}
	ops := float64(res.samples)
	if ops == 0 {
		return nil, fmt.Errorf("%s: %w: %s", cfg.wl.name, errNoSuccess, res.note)
	}
	counts := perOpCounts(cluster0, cluster1, ops)

	res.set(endToEnd, "setup_s", median(setups))
	res.set(endToEnd, "host_ops_per_s", median(opsPerSec))
	res.set(endToEnd, "host_p50_us", median(p50))
	res.set(endToEnd, "host_floor_us", median(floor))
	res.set(endToEnd, "model_kops_per_s", modelKopsPerSec(workers, rounds))
	res.set(endToEnd, "allocs_per_op", float64(host1.mallocs-host0.mallocs)/ops)
	res.set(endToEnd, "alloc_bytes_per_op", float64(host1.allocBytes-host0.allocBytes)/ops)
	res.set(endToEnd, "wire_ops_per_op", counts.wireOps)
	res.set(endToEnd, "wire_bytes_per_op", counts.wireBytes)
	res.set(endToEnd, "peak_rss_mb", peakRSSMiB())
	return res, nil
}

// runTraced is the per-layer run: untraced reference rounds for the
// counters, one round with spans on, one with telemetry off, then the
// ladder. It reports per-layer metrics only and leaves the span file.
func runTraced(ctx context.Context, cfg runConfig) (*result, error) {
	perWorker := cfg.ops() / traceShare / cfg.wl.workers
	if perWorker < 1 {
		perWorker = 1
	}
	const allRounds = referenceRounds + 2
	inst, workers, _, err := boot(ctx, cfg, perWorker*allRounds)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	p := inst.parts()
	budget := roundBudget(cfg, traceShare)

	host0, cluster0 := readHostCounters(), readClusterCounters(p)
	ref := make([]round, 0, referenceRounds)
	for r := 0; r < referenceRounds; r++ {
		ref = append(ref, runRound(ctx, inst, workers, perWorker, budget))
	}
	host1, cluster1 := readHostCounters(), readClusterCounters(p)

	for _, w := range workers {
		w.spans = newSpanBuf(perWorker * spansPerOp)
		w.spans.t0 = time.Now()
	}
	traced := runRound(ctx, inst, workers, perWorker, budget)
	spanBufs := make([]*spanBuf, len(workers))
	for i, w := range workers {
		spanBufs[i], w.spans = w.spans, nil
	}

	p.cluster.SetTelemetryEnabled(false)
	telemetryOff := runRound(ctx, inst, workers, perWorker, budget)
	p.cluster.SetTelemetryEnabled(true)

	res := &result{Metrics: map[string]metric{}}
	finish(ctx, inst, res, append(append([]round(nil), ref...), traced, telemetryOff))

	runtime.GC() // the rounds' garbage is not the rungs' to collect
	lad, err := runLadder(ctx, cfg.wl, p, cfg.quick)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.wl.name, err)
	}

	d := tracedData{
		wl: cfg.wl, workers: workers, ref: ref, traced: traced, telemetryOff: telemetryOff,
		host0: host0, host1: host1, cluster0: cluster0, cluster1: cluster1,
		steps: stepTimes(spanBufs), lad: lad,
	}
	if p.tree != nil {
		st, err := p.tree.Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: tree stats: %w", cfg.wl.name, err)
		}
		d.treeHeight = float64(st.Height)
	}
	snapshots := make([]float64, 0, 15)
	for i := 0; i < cap(snapshots); i++ {
		t0 := time.Now()
		p.cluster.TelemetrySnapshot()
		snapshots = append(snapshots, float64(time.Since(t0))/1e3)
	}
	d.snapshotUs = median(snapshots)

	rows, selfTotal, err := d.metrics(res)
	if err != nil {
		return nil, fmt.Errorf("%s: %w: %s", cfg.wl.name, err, res.note)
	}
	spans, dropped := exportSpans(cfg.wl.name, spanBufs)
	tf := &traceFile{
		Workload: cfg.wl.name, Seed: cfg.seed,
		TracedOps: traced.attempted, DroppedSpans: dropped,
		Ladder: lad.sorted(), Layers: rows, SelfSum: selfTotal,
		Metrics: res.Metrics, Spans: spans,
	}
	if err := writeTraceFile(cfg.outDir, tf); err != nil {
		return nil, err
	}
	return res, nil
}

// stepSamples is the host and modeled durations of one class of child
// span.
type stepSamples struct{ host, model []int64 }

// stepTimes groups the traced round's child spans by the op class they
// stand for (control_churn's alloc/map/.../free steps).
func stepTimes(bufs []*spanBuf) []stepSamples {
	out := make([]stepSamples, len(opClasses))
	for _, b := range bufs {
		for _, sp := range b.spans {
			c := spanClass(sp.name)
			if c < 0 {
				continue
			}
			out[c].host = append(out[c].host, sp.hostEnd-sp.hostStart)
			out[c].model = append(out[c].model, sp.modelEnd-sp.modelStart)
		}
	}
	return out
}
