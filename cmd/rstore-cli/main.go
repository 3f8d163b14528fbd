// Command rstore-cli boots a demo cluster and walks the store's
// introspection surface. It has two subcommands:
//
//	demo   populate a cluster and dump membership, regions, and contents
//	       (the default, preserving the original behavior)
//	stats  drive a short mixed workload and render the cluster-wide
//	       telemetry the master aggregates from heartbeat snapshots
//	trace  trace a workload, assemble one op's distributed trace via the
//	       master's MtTraceFetch fan-out, and render the waterfall plus
//	       its critical-path layer breakdown
//	index  load an ordered B+tree index and print its shape (depth,
//	       fanout, splits) plus the reading client's cache and bloom
//	       telemetry
//	health kill a memory server and follow the master's health engine
//	       through the incident: the server-silent alert fires, repair
//	       re-homes the data, and the alert resolves
//
// It doubles as a smoke test of the admin API (ClusterInfo / ListRegions /
// ClusterStats) a real deployment's tooling would use.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"rstore/internal/core"
	"rstore/internal/health"
	"rstore/internal/index"
	"rstore/internal/kvstore"
	"rstore/internal/telemetry"
	"rstore/internal/workload"
)

// cmdTimeout bounds every subcommand end to end: an unreachable master
// group must surface as an error and a non-zero exit, never a hang.
const cmdTimeout = 2 * time.Minute

func runDemo(machines, masters int) error {
	ctx, cancel := context.WithTimeout(context.Background(), cmdTimeout)
	defer cancel()
	cluster, err := core.Start(ctx, core.Config{Machines: machines, MasterReplicas: masters})
	if err != nil {
		return err
	}
	defer cluster.Close()

	cli, err := cluster.NewClient(ctx, 1)
	if err != nil {
		return err
	}

	// Populate: a few raw regions plus a KV table.
	for i, size := range []uint64{1 << 20, 4 << 20, 512 << 10} {
		name := fmt.Sprintf("app/region-%d", i)
		reg, err := cli.AllocMap(ctx, name, size, core.AllocOptions{})
		if err != nil {
			return err
		}
		if err := reg.Write(ctx, 0, []byte(strings.Repeat(name+";", 4))); err != nil {
			return err
		}
	}
	kv, err := kvstore.Create(ctx, cli, "app/kv", kvstore.Options{Slots: 1024})
	if err != nil {
		return err
	}
	for _, pair := range [][2]string{{"region", "distributed DRAM"}, {"api", "memory-like"}, {"path", "one-sided"}} {
		if err := kv.Put(ctx, []byte(pair[0]), []byte(pair[1])); err != nil {
			return err
		}
	}

	// Inspect: servers.
	servers, err := cli.ClusterInfo(ctx)
	if err != nil {
		return err
	}
	st := telemetry.NewTable("memory servers", "node", "capacity-mib", "used-kib", "alive")
	for _, s := range servers {
		st.AddRow(s.Node, s.Capacity>>20, s.Used>>10, s.Alive)
	}
	fmt.Println(st.String())

	// Inspect: regions.
	regions, err := cli.ListRegions(ctx)
	if err != nil {
		return err
	}
	rt := telemetry.NewTable("regions", "name", "id", "bytes", "mapped")
	for _, r := range regions {
		rt.AddRow(r.Name, uint64(r.ID), r.Size, r.MapCount)
	}
	fmt.Println(rt.String())

	// Inspect: raw bytes of one region.
	reg, err := cli.Map(ctx, "app/region-0")
	if err != nil {
		return err
	}
	head := make([]byte, 48)
	if err := reg.Read(ctx, 0, head); err != nil {
		return err
	}
	fmt.Printf("app/region-0[0:48] = %q\n", head)

	// Inspect: KV lookups.
	for _, key := range []string{"region", "api", "path"} {
		v, err := kv.Get(ctx, []byte(key))
		if err != nil {
			return err
		}
		fmt.Printf("kv[%s] = %q\n", key, v)
	}
	return nil
}

// runRegions boots a cluster, allocates a replicated and a plain region,
// then renders the master's repair-plane view of every region — placement,
// per-copy health, dirty/under-repair flags, and the generation counter.
// It kills one replica holder mid-run so the output shows the store
// degrading and then self-healing.
func runRegions(machines, masters int) error {
	ctx, cancel := context.WithTimeout(context.Background(), cmdTimeout)
	defer cancel()
	const beat = 20 * time.Millisecond
	if machines < masters+4 {
		// Two width-2 copies need 4 memory servers for a disjoint
		// placement (machines counts the master replicas too).
		machines = masters + 4
	}
	cluster, err := core.Start(ctx, core.Config{Machines: machines, MasterReplicas: masters, HeartbeatInterval: beat})
	if err != nil {
		return err
	}
	defer cluster.Close()

	cli, err := cluster.NewClient(ctx, 1)
	if err != nil {
		return err
	}
	// Server registration races the boot; allocate only once every server
	// is in, or the replica falls back to an overlapping placement.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if len(cluster.Master().AliveServers()) >= machines-masters {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("servers still registering after 5s")
		}
		time.Sleep(beat)
	}
	// Stripe each copy across half the servers so the two copies land on
	// disjoint nodes — a full-width stripe would put every copy on every
	// server and no single failure would be survivable.
	reg, err := cli.AllocMap(ctx, "app/replicated", 2<<20, core.AllocOptions{Replicas: 1, StripeWidth: 2})
	if err != nil {
		return err
	}
	if _, err := cli.AllocMap(ctx, "app/plain", 1<<20, core.AllocOptions{}); err != nil {
		return err
	}
	if err := reg.Write(ctx, 0, []byte(strings.Repeat("rstore;", 64))); err != nil {
		return err
	}

	statuses, err := cli.RegionStatuses(ctx)
	if err != nil {
		return err
	}
	fmt.Println("before failure:")
	printRegionStatuses(statuses)

	// Kill the server holding the replica's first extent and watch the
	// repair plane restore full replication on the survivors.
	victim := reg.Info().Copies()[1][0].Server
	fmt.Printf("killing memory server on node %d...\n\n", victim)
	if err := cluster.KillServer(victim); err != nil {
		return err
	}
	gen := reg.Info().Generation
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		statuses, err = cli.RegionStatuses(ctx)
		if err != nil {
			return err
		}
		if healed(statuses, "app/replicated", gen) {
			break
		}
		time.Sleep(beat)
	}
	fmt.Println("after self-healing repair:")
	printRegionStatuses(statuses)
	return nil
}

// healed reports whether the named region's generation advanced past gen
// and every copy is healthy and clean again.
func healed(statuses []core.RegionStatus, name string, gen uint64) bool {
	for _, st := range statuses {
		if st.Info.Name != name {
			continue
		}
		if st.Info.Generation <= gen || st.Lost {
			return false
		}
		for _, cs := range st.Copies {
			if !cs.Healthy || cs.Dirty || cs.UnderRepair {
				return false
			}
		}
		return true
	}
	return false
}

// printRegionStatuses renders the repair-plane introspection tables: one
// region-level row each, then one row per copy with its placement and
// health flags.
func printRegionStatuses(statuses []core.RegionStatus) {
	rt := telemetry.NewTable("regions", "name", "id", "bytes", "gen", "mapped", "copies", "lost")
	for _, st := range statuses {
		rt.AddRow(st.Info.Name, uint64(st.Info.ID), st.Info.Size, st.Info.Generation,
			st.MapCount, len(st.Copies), st.Lost)
	}
	fmt.Println(rt.String())

	ct := telemetry.NewTable("copies", "region", "copy", "servers", "healthy", "dirty", "repairing", "degraded")
	for _, st := range statuses {
		for i, cs := range st.Copies {
			copies := st.Info.Copies()
			var nodes []string
			if i < len(copies) {
				for _, x := range copies[i] {
					nodes = append(nodes, fmt.Sprintf("%d", x.Server))
				}
			}
			role := "primary"
			if i > 0 {
				role = fmt.Sprintf("replica-%d", i-1)
			}
			ct.AddRow(st.Info.Name, role, strings.Join(nodes, ","),
				cs.Healthy, cs.Dirty, cs.UnderRepair, cs.PlacementDegraded)
		}
	}
	fmt.Println(ct.String())
}

// runHealth boots a cluster, shows it healthy, then kills a memory server
// and follows the health engine through the incident: the server-silent
// alert firing (detection), repair re-homing the data, and the alert
// resolving (recovery) — plus the per-window rates the verdicts were
// judged on. This is the monitoring loop an operator runs before the
// stats/trace deep dives.
func runHealth(machines, masters int) error {
	ctx, cancel := context.WithTimeout(context.Background(), cmdTimeout)
	defer cancel()
	const beat = 20 * time.Millisecond
	if machines < masters+4 {
		// Two width-2 copies need 4 memory servers for disjoint placement.
		machines = masters + 4
	}
	cluster, err := core.Start(ctx, core.Config{Machines: machines, MasterReplicas: masters, HeartbeatInterval: beat})
	if err != nil {
		return err
	}
	defer cluster.Close()
	// Windows bucket on *virtual* time, and this demo's whole incident
	// spans only a millisecond or two of it; narrow the buckets so the
	// closing rates table always has several sealed windows to show.
	cluster.SetWindowWidth(50 * time.Microsecond)

	cli, err := cluster.NewClient(ctx, 1)
	if err != nil {
		return err
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		if len(cluster.Master().AliveServers()) >= machines-masters {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("servers still registering after 5s")
		}
		time.Sleep(beat)
	}
	reg, err := cli.AllocMap(ctx, "app/health-demo", 2<<20, core.AllocOptions{Replicas: 1, StripeWidth: 2})
	if err != nil {
		return err
	}
	buf, err := cli.AllocBuf(64 << 10)
	if err != nil {
		return err
	}
	for i := 0; i < 32; i++ {
		off := uint64(i) * (64 << 10) % ((2 << 20) - (64 << 10))
		if _, err := reg.WriteAt(ctx, off, buf, 0, 64<<10); err != nil {
			return err
		}
		if _, err := reg.ReadAt(ctx, off, buf, 0, 64<<10); err != nil {
			return err
		}
	}

	report, err := waitHealth(ctx, cli, beat, func(r core.HealthReport) bool {
		return len(firingAlerts(r)) == 0
	})
	if err != nil {
		return err
	}
	fmt.Println("healthy cluster:")
	printHealthReport(report, false)

	victim := reg.Info().Copies()[1][0].Server
	fmt.Printf("killing memory server on node %d...\n\n", victim)
	if err := cluster.KillServer(victim); err != nil {
		return err
	}
	report, err = waitHealth(ctx, cli, beat, func(r core.HealthReport) bool {
		return len(firingAlerts(r)) > 0
	})
	if err != nil {
		return err
	}
	fmt.Println("after failure (alert fired):")
	printHealthReport(report, false)

	// Repair re-homes the victim's extents onto survivors; once no copy
	// references the dead server the alert resolves on its own.
	report, err = waitHealth(ctx, cli, beat, func(r core.HealthReport) bool {
		return len(firingAlerts(r)) == 0
	})
	if err != nil {
		return err
	}
	fmt.Println("after self-healing repair (alert resolved):")
	printHealthReport(report, true)
	return nil
}

// waitHealth polls ClusterHealth until ok(report) or a 15s deadline.
func waitHealth(ctx context.Context, cli *core.Client, beat time.Duration, ok func(core.HealthReport) bool) (core.HealthReport, error) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		report, err := cli.ClusterHealth(ctx)
		if err != nil {
			return core.HealthReport{}, err
		}
		if ok(report) || time.Now().After(deadline) {
			return report, nil
		}
		time.Sleep(beat)
	}
}

// firingAlerts filters the report's alert table to the firing ones.
func firingAlerts(r core.HealthReport) []health.Alert {
	var out []health.Alert
	for _, a := range r.Alerts {
		if a.State == health.StateFiring {
			out = append(out, a)
		}
	}
	return out
}

// printHealthReport renders the alert table and, when full is set, the
// event history and the per-window rates the rules judged.
func printHealthReport(r core.HealthReport, full bool) {
	at := telemetry.NewTable("alerts", "severity", "state", "rule", "target", "message")
	for _, a := range r.Alerts {
		target := a.Target
		if target == "" {
			target = "cluster"
		}
		at.AddRow(a.Severity, a.State, a.Rule, target, a.Msg)
	}
	if len(r.Alerts) == 0 {
		at.AddRow("-", "-", "-", "-", "no alerts")
	}
	fmt.Println(at.String())
	if !full {
		return
	}

	et := telemetry.NewTable("health events", "vtime", "severity", "rule", "target", "transition")
	for _, ev := range r.Events {
		verb := "fired"
		if !ev.Firing {
			verb = "resolved"
		}
		target := ev.Target
		if target == "" {
			target = "cluster"
		}
		et.AddRow(time.Duration(ev.V), ev.Severity, ev.Rule, target, verb)
	}
	fmt.Println(et.String())
	printWindowRates(r.Windows)
}

// printWindowRates renders per-window counter rates and windowed latency
// quantiles from a merged snapshot's window rings.
func printWindowRates(w telemetry.Snapshot) {
	names := make([]string, 0, len(w.CounterWindows))
	for name := range w.CounterWindows {
		if w.CounterDelta(name, 0) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	rt := telemetry.NewTable("windowed rates", "metric", "windows", "delta", "per-sec (virtual)")
	for _, name := range names {
		rt.AddRow(name, len(w.CounterWindows[name].Vals), w.CounterDelta(name, 0), fmt.Sprintf("%.0f", w.CounterRate(name)))
	}
	fmt.Println(rt.String())

	hnames := make([]string, 0, len(w.HistogramWindows))
	for name := range w.HistogramWindows {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	ht := telemetry.NewTable("windowed latencies", "metric", "n", "p50", "p99")
	for _, name := range hnames {
		h := w.HistogramWindow(name, 0)
		if h.Count == 0 {
			continue
		}
		ht.AddRow(name, h.Count, time.Duration(h.Quantile(0.5)), time.Duration(h.Quantile(0.99)))
	}
	fmt.Println(ht.String())
}

// runStats boots a cluster, drives a short mixed workload so every layer's
// counters move, then fetches the master's aggregated per-node telemetry —
// the view an operator polls against a running deployment.
func runStats(machines, masters int) error {
	ctx, cancel := context.WithTimeout(context.Background(), cmdTimeout)
	defer cancel()
	const beat = 50 * time.Millisecond
	if machines < masters+2 {
		machines = masters + 2
	}
	cluster, err := core.Start(ctx, core.Config{Machines: machines, MasterReplicas: masters, HeartbeatInterval: beat})
	if err != nil {
		return err
	}
	defer cluster.Close()

	cli, err := cluster.NewClient(ctx, 1)
	if err != nil {
		return err
	}

	// Workload: writes, reads, and atomics against a striped region. The
	// client shares node 1's registry with that node's memory server, so
	// its client.* counters ride the same heartbeat snapshot (the paper
	// co-locates compute with memory servers).
	reg, err := cli.AllocMap(ctx, "app/stats-demo", 8<<20, core.AllocOptions{})
	if err != nil {
		return err
	}
	const chunk = 64 << 10
	buf, err := cli.AllocBuf(chunk)
	if err != nil {
		return err
	}
	for i := 0; i < 64; i++ {
		off := uint64(i) * chunk % ((8 << 20) - chunk)
		if _, err := reg.WriteAt(ctx, off, buf, 0, chunk); err != nil {
			return err
		}
		if _, err := reg.ReadAt(ctx, off, buf, 0, chunk); err != nil {
			return err
		}
	}
	for i := 0; i < 16; i++ {
		if _, _, err := reg.FetchAdd(ctx, 0, 1); err != nil {
			return err
		}
	}

	// Server snapshots reach the master on heartbeats; poll until every
	// reporting node (the primary plus each memory server — standby
	// masters do not heartbeat to the primary) has reported once.
	var stats []core.NodeStats
	reporting := machines - masters + 1
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, err = cli.ClusterStats(ctx)
		if err != nil {
			return err
		}
		if len(stats) >= reporting || time.Now().After(deadline) {
			break
		}
		time.Sleep(beat)
	}
	printStats(stats)
	printMasterStatuses(cli.MasterStatuses(ctx))
	return nil
}

// printMasterStatuses renders the control plane's replication view: each
// configured master replica's role, epoch, and who it believes leads.
func printMasterStatuses(statuses []core.MasterStatus) {
	mt := telemetry.NewTable("master replicas", "node", "role", "epoch", "primary")
	for _, ms := range statuses {
		if ms.Err != nil {
			mt.AddRow(ms.Node, "unreachable", "-", "-")
			continue
		}
		mt.AddRow(ms.Node, ms.Role, ms.Epoch, ms.Primary)
	}
	fmt.Println(mt.String())
}

// printStats renders one column per node for counters and gauges, plus the
// cluster-wide merged latency histograms.
func printStats(stats []core.NodeStats) {
	cols := []string{"metric"}
	names := make(map[string]bool)
	for _, ns := range stats {
		cols = append(cols, fmt.Sprintf("%s@%d", ns.Role, ns.Node))
		for n := range ns.Stats.Counters {
			names[n] = true
		}
		for n := range ns.Stats.Gauges {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	ct := telemetry.NewTable("cluster counters", cols...)
	for _, name := range sorted {
		row := []interface{}{name}
		for _, ns := range stats {
			if v, ok := ns.Stats.Counters[name]; ok {
				row = append(row, v)
			} else if v, ok := ns.Stats.Gauges[name]; ok {
				row = append(row, v)
			} else {
				row = append(row, "-")
			}
		}
		ct.AddRow(row...)
	}
	fmt.Println(ct.String())

	var merged telemetry.Snapshot
	for _, ns := range stats {
		merged.Merge(ns.Stats)
	}
	if len(merged.Histograms) == 0 {
		return
	}
	hnames := make([]string, 0, len(merged.Histograms))
	for n := range merged.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	ht := telemetry.NewTable("cluster latencies", "metric", "n", "mean", "p50", "p99", "max")
	for _, name := range hnames {
		h := merged.Histograms[name]
		ht.AddRow(name, h.Count,
			time.Duration(h.Mean()),
			time.Duration(h.Quantile(0.5)),
			time.Duration(h.Quantile(0.99)),
			time.Duration(h.Max))
	}
	fmt.Println(ht.String())
}

// runTrace boots a cluster, traces a short striped workload with the
// flight recorder armed, then assembles one operation's distributed trace
// into a causal tree and renders it as a waterfall with a per-layer
// critical-path breakdown. Without an argument it picks the slowest
// operation the flight recorder pinned; with a hex trace id it assembles
// that trace instead. This is the debugging loop an operator follows when
// chasing a tail-latency report: stats → trace → waterfall.
func runTrace(machines, masters int, idArg string) error {
	ctx, cancel := context.WithTimeout(context.Background(), cmdTimeout)
	defer cancel()
	if machines < masters+3 {
		machines = masters + 3 // a width-3 stripe needs 3 memory servers
	}
	cluster, err := core.Start(ctx, core.Config{Machines: machines, MasterReplicas: masters})
	if err != nil {
		return err
	}
	defer cluster.Close()

	// Trace every op and pin them all: in a demo run the flight recorder
	// doubles as the index of candidate traces to assemble.
	cluster.SetTraceSampling(1)
	cluster.SetSlowOpThreshold(time.Nanosecond)

	cli, err := cluster.NewClient(ctx, 1)
	if err != nil {
		return err
	}
	reg, err := cli.AllocMap(ctx, "app/trace-demo", 8<<20,
		core.AllocOptions{StripeWidth: 3, StripeUnit: 64 << 10})
	if err != nil {
		return err
	}
	const chunk = 192 << 10 // three stripe units: every op fans out to all three servers
	buf, err := cli.AllocBuf(chunk)
	if err != nil {
		return err
	}
	for i := 0; i < 32; i++ {
		off := uint64(i) * chunk % ((8 << 20) - chunk)
		if _, err := reg.WriteAt(ctx, off, buf, 0, chunk); err != nil {
			return err
		}
		if _, err := reg.ReadAt(ctx, off, buf, 0, chunk); err != nil {
			return err
		}
	}

	var id telemetry.TraceID
	if idArg != "" {
		v, perr := strconv.ParseUint(idArg, 16, 64)
		if perr != nil {
			return fmt.Errorf("bad trace id %q: %v", idArg, perr)
		}
		id = telemetry.TraceID(v)
	} else {
		var worst time.Duration
		for _, sp := range cluster.FlightSpans() {
			if sp.Parent != 0 || !strings.HasPrefix(sp.Name, "client.") {
				continue
			}
			if d := sp.EndV.Sub(sp.StartV); d > worst {
				worst, id = d, sp.Trace
			}
		}
		if id == 0 {
			return fmt.Errorf("flight recorder pinned no client ops")
		}
	}

	spans, complete, err := cli.FetchTrace(ctx, id)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("no spans found for trace %v", id)
	}
	tree := telemetry.Assemble(spans)
	telemetry.Waterfall(os.Stdout, tree)
	fmt.Printf("\ncritical path: %s\n", telemetry.CriticalPath(tree))
	if !complete {
		fmt.Println("note: trace may be incomplete (ring wrapped or a node was unreachable)")
	}
	return nil
}

// runIndex boots a cluster, loads an ordered B+tree index through one
// client and reads it through another, then prints the tree's shape
// (depth, node count, fanout) and the reader's cache/bloom telemetry —
// the quick health check for "is the index actually serving lookups
// from its cache".
func runIndex(machines, masters int) error {
	ctx, cancel := context.WithTimeout(context.Background(), cmdTimeout)
	defer cancel()
	cluster, err := core.Start(ctx, core.Config{Machines: machines, MasterReplicas: masters})
	if err != nil {
		return err
	}
	defer cluster.Close()

	writerCli, err := cluster.NewClient(ctx, 1)
	if err != nil {
		return err
	}
	const keys = 400
	opts := index.Options{Nodes: 512, NodeSize: 512, MaxKey: 32}
	tree, err := index.Create(ctx, writerCli, "app/index", opts)
	if err != nil {
		return err
	}
	for i := 0; i < keys; i++ {
		if err := tree.Insert(ctx, workload.OrderedKey(i), []byte(fmt.Sprintf("row-%d", i))); err != nil {
			return err
		}
	}

	readerCli, err := cluster.NewClient(ctx, 1)
	if err != nil {
		return err
	}
	reader, err := index.Open(ctx, readerCli, "app/index", opts)
	if err != nil {
		return err
	}
	// One cold pass warms the route cache and blooms; the second pass and
	// the misses show what steady state costs.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < keys; i += 7 {
			if _, err := reader.Get(ctx, workload.OrderedKey(i)); err != nil {
				return err
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 32; i++ {
			if _, err := reader.Get(ctx, []byte(fmt.Sprintf("absent-%03d", i))); !errors.Is(err, index.ErrNotFound) {
				return fmt.Errorf("absent key: %v", err)
			}
		}
	}
	ents, err := reader.Scan(ctx, workload.OrderedKey(100), workload.OrderedKey(110))
	if err != nil {
		return err
	}

	st, err := reader.Stats(ctx)
	if err != nil {
		return err
	}
	fanout := 0.0
	if st.Nodes > 0 {
		fanout = float64(keys) / float64(st.Nodes)
	}
	tt := telemetry.NewTable("tree shape", "metric", "value")
	tt.AddRow("keys", keys)
	tt.AddRow("depth", st.Height)
	tt.AddRow("nodes", st.Nodes)
	tt.AddRow("avg-fanout", fmt.Sprintf("%.1f", fanout))
	tt.AddRow("cached-nodes", st.CachedNodes)
	tt.AddRow("cached-blooms", st.CachedBlooms)
	tt.AddRow("splits (writer)", writerCli.Telemetry().Counter("index.splits").Value())
	fmt.Println(tt.String())

	snap := readerCli.Telemetry().Snapshot()
	hits := snap.Counters["index.cache_hits"]
	misses := snap.Counters["index.cache_misses"]
	hitRate := "-"
	if hits+misses > 0 {
		hitRate = fmt.Sprintf("%.0f%%", 100*float64(hits)/float64(hits+misses))
	}
	rt := telemetry.NewTable("reader telemetry", "metric", "value")
	rt.AddRow("lookups", snap.Counters["index.lookups"])
	rt.AddRow("cache hits", hits)
	rt.AddRow("cache misses", misses)
	rt.AddRow("cache hit-rate", hitRate)
	rt.AddRow("bloom shortcuts", snap.Counters["index.bloom_shortcuts"])
	rt.AddRow("retraversals", snap.Counters["index.retraversals"])
	rt.AddRow("one-sided reads", snap.Counters["client.reads"])
	fmt.Println(rt.String())

	fmt.Printf("scan [%s, %s):\n", workload.OrderedKey(100), workload.OrderedKey(110))
	for _, e := range ents {
		fmt.Printf("  %s = %q\n", e.Key, e.Val)
	}
	return nil
}

func main() {
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "usage: rstore-cli [flags] [command]\n\ncommands:\n")
		fmt.Fprintf(out, "  demo     populate a demo cluster and dump membership, regions, contents (default)\n")
		fmt.Fprintf(out, "  stats    run a workload and print cluster-wide telemetry\n")
		fmt.Fprintf(out, "  regions  show placement, per-copy health, and generations; kill a server\n")
		fmt.Fprintf(out, "           and watch the repair plane self-heal\n")
		fmt.Fprintf(out, "  trace [id]  trace a workload, assemble the slowest op's distributed trace\n")
		fmt.Fprintf(out, "           (or the given hex trace id), and render its waterfall\n")
		fmt.Fprintf(out, "  index    load an ordered B+tree index and print its shape plus the\n")
		fmt.Fprintf(out, "           reader's cache/bloom telemetry\n")
		fmt.Fprintf(out, "  health   kill a server and follow the health engine through the\n")
		fmt.Fprintf(out, "           incident: alert fires, repair re-homes data, alert resolves\n\nflags:\n")
		flag.PrintDefaults()
	}
	machines := flag.Int("machines", 4, "cluster size")
	masters := flag.Int("masters", 1, "master replicas (nodes 0..N-1; node 0 boots as primary)")
	flag.Parse()

	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "demo"
	}
	if *masters < 1 {
		*masters = 1
	}
	var err error
	switch cmd {
	case "demo":
		err = runDemo(*machines, *masters)
	case "stats":
		err = runStats(*machines, *masters)
	case "regions":
		err = runRegions(*machines, *masters)
	case "trace":
		err = runTrace(*machines, *masters, flag.Arg(1))
	case "index":
		err = runIndex(*machines, *masters)
	case "health":
		err = runHealth(*machines, *masters)
	default:
		err = fmt.Errorf("unknown command %q (want demo, stats, regions, trace, index, or health)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rstore-cli:", err)
		if errors.Is(err, core.ErrMasterUnavailable) {
			fmt.Fprintln(os.Stderr, "rstore-cli: no master replica answered as primary;"+
				" check that the master group (-masters) is up and reachable, then retry")
		}
		os.Exit(1)
	}
}
