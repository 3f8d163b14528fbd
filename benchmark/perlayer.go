package main

import "errors"

// tracedData is what the traced run measured, before it becomes metrics.
type tracedData struct {
	wl                   workloadDef
	workers              []*worker
	ref                  []round // untraced reference rounds: every count and percentile
	traced, telemetryOff round
	host0, host1         hostCounters    // around the reference rounds
	cluster0, cluster1   clusterCounters // likewise
	steps                []stepSamples   // the traced round's child spans by class
	lad                  ladder
	treeHeight           float64
	snapshotUs           float64
}

var errNoSuccess = errors.New("no op succeeded")

// metrics sets every per-layer metric on res and returns the layer table
// behind the self times.
func (d *tracedData) metrics(res *result) ([]layerRow, selfSum, error) {
	lad, steps := d.lad, d.steps
	hostSamples := samples(d.workers, d.ref, hostCol, -1)
	modelSamples := samples(d.workers, d.ref, modelCol, -1)
	res.samples = len(hostSamples)
	ops := float64(len(hostSamples))
	if ops == 0 {
		return nil, selfSum{}, errNoSuccess
	}
	counts := perOpCounts(d.cluster0, d.cluster1, ops)
	var refRates []float64
	var refWall float64 // ns
	for _, r := range d.ref {
		refRates = append(refRates, r.opsPerSec())
		refWall += float64(r.wall)
	}
	refRate := median(refRates)
	lo, hi := refRates[0], refRates[0]
	for _, v := range refRates {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	tracedOps := float64(d.traced.attempted - d.traced.failed)
	in := layerInputs{
		wl: d.wl, counts: counts,
		opHostNs: refWall / ops, opModel: mean(modelSamples),
	}
	for _, c := range []int{clsAlloc, clsMap, clsUnmap, clsFree} {
		if tracedOps > 0 {
			in.ctrlHostNs += sum(steps[c].host) / tracedOps
			in.ctrlModelNs += sum(steps[c].model) / tracedOps
		}
	}
	rows, selfTotal := layerTable(lad, in)
	self := map[string]layerRow{}
	for _, row := range rows {
		self[row.Layer] = row
	}

	set := func(name string, v float64) { res.set(perLayer, name, v) }
	set("loadgen.host_p99_us", quantile(hostSamples, 0.99)/1e3)
	set("loadgen.model_p50_us", quantile(modelSamples, 0.50)/1e3)
	set("loadgen.model_p95_us", quantile(modelSamples, 0.95)/1e3)
	set("loadgen.model_p99_us", quantile(modelSamples, 0.99)/1e3)
	set("loadgen.model_mean_us", in.opModel/1e3)
	set("loadgen.cpu_us_per_op", float64(d.host1.cpu-d.host0.cpu)/1e3/ops)
	set("loadgen.round_spread", (hi-lo)/refRate)
	set("loadgen.gc_cycles", float64(d.host1.gcCycles-d.host0.gcCycles))
	set("loadgen.trace_overhead_share", 1-d.traced.opsPerSec()/refRate)

	for c, name := range opClasses {
		h := samples(d.workers, d.ref, hostCol, c)
		m := samples(d.workers, d.ref, modelCol, c)
		if len(h) == 0 { // not a root class here: a step of the op, timed by its span
			h, m = steps[c].host, steps[c].model
			sortInt64(h)
			sortInt64(m)
		}
		set("class."+name+"_host_p50_us", quantile(h, 0.50)/1e3)
		set("class."+name+"_model_p50_us", quantile(m, 0.50)/1e3)
	}

	set("simnet.link_ops_per_op", counts.linkOps)
	set("simnet.link_bytes_per_op", counts.linkBytes)
	set("simnet.link_busy_share_max", linkBusyShareMax(d.cluster0, d.cluster1))
	set("simnet.transfer_host_ns", lad["simnet.Transfer"].HostNs)
	set("simnet.self_host_us_per_op", self["simnet"].SelfHostUs)

	set("rdma.onesided_per_op", counts.oneSided)
	set("rdma.atomics_per_op", counts.atomics)
	set("rdma.sendrecv_per_op", counts.sendRecv)
	set("rdma.retransmits", counterDelta(d.cluster0, d.cluster1, "rdma.retransmits"))
	set("rdma.errors", counterDelta(d.cluster0, d.cluster1, "rdma.errors"))
	set("rdma.post_host_ns", lad["rdma.read"].HostNs)
	set("rdma.post_model_ns", lad["rdma.read"].ModelNs)
	set("rdma.self_host_us_per_op", self["rdma"].SelfHostUs)
	set("rdma.self_model_us_per_op", self["rdma"].SelfModelUs)

	set("rpc.calls_per_op", counts.rpcCalls)
	set("rpc.call_host_ns", lad["rpc.Call"].HostNs)
	set("rpc.call_model_ns", lad["rpc.Call"].ModelNs)
	set("rpc.credit_stalls", counterDelta(d.cluster0, d.cluster1, "rpc.credit_stalls"))
	set("rpc.call_errors", counterDelta(d.cluster0, d.cluster1, "rpc.call_errors"))
	set("rpc.self_host_us_per_op", self["rpc"].SelfHostUs)
	set("rpc.self_model_us_per_op", self["rpc"].SelfModelUs)

	set("client.reads_per_op", counts.clientReads)
	set("client.writes_per_op", counts.clientWrites)
	set("client.atomics_per_op", counts.clientAtomics)
	set("client.fragments_per_op", counts.oneSided+counts.atomics)
	set("client.retries_per_op", counts.clientRetries)
	set("client.remaps", counterDelta(d.cluster0, d.cluster1, "client.remaps"))
	set("client.io_failures", counterDelta(d.cluster0, d.cluster1, "client.io_failures"))
	set("client.ctrl_model_us_per_op", counts.ctrlModelNs/1e3)
	set("client.self_host_us_per_op", self["client"].SelfHostUs)
	set("client.self_model_us_per_op", self["client"].SelfModelUs)

	set("master.allocs_per_op", counts.masterAllocs)
	set("master.maps_per_op", counts.masterMaps)
	set("master.frees_per_op", counts.masterFrees)
	set("master.repl_records_per_op", counts.replRecords)
	set("master.heartbeats", counterDelta(d.cluster0, d.cluster1, "master.heartbeats"))
	set("master.self_host_us_per_op", self["master"].SelfHostUs)

	set("memserver.served_ops_per_op", counts.servedOps)
	set("memserver.served_bytes_per_op", counts.servedBytes)

	commitLat := d.cluster1.tel.Histograms["txn.commit_latency"]
	abortShare := 0.0
	if counts.txnCommits+counts.txnAborts > 0 {
		abortShare = counts.txnAborts / (counts.txnCommits + counts.txnAborts)
	}
	set("txn.commits_per_op", counts.txnCommits)
	set("txn.abort_share", abortShare)
	set("txn.lock_breaks", counterDelta(d.cluster0, d.cluster1, "txn.lock_breaks"))
	set("txn.commit_model_p50_us", commitLat.Quantile(0.50)/1e3)
	set("txn.commit_model_p99_us", commitLat.Quantile(0.99)/1e3)
	set("txn.self_host_us_per_op", self["txn"].SelfHostUs)
	set("txn.self_model_us_per_op", self["txn"].SelfModelUs)
	set("txn.predicted_over_measured", predictedOverMeasured(lad, lad["txn.RunTx.2"], txnCellSize))

	hits := counterDelta(d.cluster0, d.cluster1, "index.cache_hits")
	misses := counterDelta(d.cluster0, d.cluster1, "index.cache_misses")
	lookups := counterDelta(d.cluster0, d.cluster1, "index.lookups")
	depth0, depth1 := d.cluster0.tel.Histograms["index.traversal_depth"], d.cluster1.tel.Histograms["index.traversal_depth"]
	set("index.lookups_per_op", counts.indexLookups)
	set("index.cache_hit_share", ratio(hits, hits+misses))
	set("index.bloom_shortcut_share", ratio(counterDelta(d.cluster0, d.cluster1, "index.bloom_shortcuts"), lookups))
	set("index.retraversals_per_op", counts.indexRetraversals)
	set("index.splits", counterDelta(d.cluster0, d.cluster1, "index.splits"))
	set("index.depth_mean", ratio(depth1.Sum-depth0.Sum, float64(depth1.Count-depth0.Count)))
	set("index.height", d.treeHeight)
	set("index.self_host_us_per_op", self["index"].SelfHostUs)
	set("index.self_model_us_per_op", self["index"].SelfModelUs)
	set("index.predicted_over_measured", predictedOverMeasured(lad, lad["index.Get.warm"], indexNodeSize))

	set("kvstore.get_host_ns", lad["kvstore.Get"].HostNs)
	set("kvstore.get_model_ns", lad["kvstore.Get"].ModelNs)
	set("kvstore.put_host_ns", lad["kvstore.Put"].HostNs)
	set("kvstore.put_model_ns", lad["kvstore.Put"].ModelNs)

	set("telemetry.off_speedup", d.telemetryOff.opsPerSec()/refRate)
	set("telemetry.snapshot_host_us", d.snapshotUs)

	return rows, selfTotal, nil
}
