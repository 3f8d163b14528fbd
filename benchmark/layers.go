package main

// Layer arithmetic: per-op counts from the layers' own counters, busy and
// self time from counts x ladder rungs. The host axis and the modeled
// axis are computed side by side and never mixed.

// opCounts is what one logical op (or one rung call) did, per the
// cluster-wide counters and the fabric's link accounting.
type opCounts struct {
	linkOps, linkBytes          float64
	wireOps, wireBytes          float64
	oneSided, atomics, sendRecv float64
	servedOps, servedBytes      float64

	rpcCalls                                 float64
	clientReads, clientWrites, clientAtomics float64
	clientRetries                            float64

	masterAllocs, masterMaps, masterFrees, replRecords float64

	txnCommits, txnAborts, txnReadonly float64
	indexLookups, indexRetraversals    float64
	ctrlModelNs                        float64
}

func perOpCounts(before, after clusterCounters, ops float64) opCounts {
	delta := func(name string) float64 { return counterDelta(before, after, name) }
	d := func(name string) float64 { return delta(name) / ops }
	var c opCounts
	for i := range after.links {
		c.linkOps += float64(after.links[i].Egress.Ops - before.links[i].Egress.Ops)
		c.linkBytes += float64(after.links[i].Egress.Bytes - before.links[i].Egress.Bytes)
	}
	c.linkOps /= ops
	c.linkBytes /= ops
	c.wireOps, c.wireBytes = d("rdma.ops"), d("rdma.bytes")
	c.oneSided, c.atomics = d("rdma.one_sided"), d("rdma.atomics")
	// Subtract before dividing: the three are integers, their quotients not.
	c.sendRecv = (delta("rdma.ops") - delta("rdma.one_sided") - delta("rdma.atomics")) / ops
	c.servedOps, c.servedBytes = d("rdma.served_ops"), d("rdma.served_bytes")
	c.rpcCalls = d("rpc.calls_out")
	c.clientReads, c.clientWrites, c.clientAtomics = d("client.reads"), d("client.writes"), d("client.atomics")
	c.clientRetries = d("client.retries")
	c.masterAllocs, c.masterMaps, c.masterFrees = d("master.allocs"), d("master.maps"), d("master.frees")
	c.replRecords = d("master.repl_records")
	c.txnCommits, c.txnAborts, c.txnReadonly = d("txn.commits"), d("txn.aborts"), d("txn.readonly_commits")
	c.indexLookups, c.indexRetraversals = d("index.lookups"), d("index.retraversals")
	c.ctrlModelNs = float64(after.ctrl.Total()-before.ctrl.Total()) / ops
	return c
}

// linkBusyShareMax is the busiest line's reserved time as a share of the
// virtual time that elapsed.
func linkBusyShareMax(before, after clusterCounters) float64 {
	elapsed := float64(after.vnow - before.vnow)
	if elapsed <= 0 {
		return 0
	}
	var busiest float64
	for i := range after.links {
		for _, b := range []float64{
			float64(after.links[i].Egress.Busy - before.links[i].Egress.Busy),
			float64(after.links[i].Ingress.Busy - before.links[i].Ingress.Busy),
		} {
			if b > busiest {
				busiest = b
			}
		}
	}
	return busiest / elapsed
}

// axis selects one of a rung's two costs.
type axis func(rung) float64

func hostAxis(r rung) float64  { return r.HostNs }
func modelAxis(r rung) float64 { return r.ModelNs }

// layerRow is one layer's time per logical op, in microseconds. Busy is
// calls x rung cost; Self is Busy minus the busy time of the rung below
// it. Nothing is clamped: where a layer overlaps its children (parallel
// lock and install rounds), self time on the modeled axis can come out
// negative, and that is the finding.
type layerRow struct {
	Layer       string  `json:"layer"`
	BusyHostUs  float64 `json:"busy_host_us_per_op"`
	SelfHostUs  float64 `json:"self_host_us_per_op"`
	BusyModelUs float64 `json:"busy_model_us_per_op"`
	SelfModelUs float64 `json:"self_model_us_per_op"`
}

// selfSum compares the sum of the layers' self times with the measured
// per-op time; on workloads without overlapping children the two agree.
type selfSum struct {
	HostUs          float64 `json:"host_us_per_op"`
	MeasuredHostUs  float64 `json:"measured_host_us_per_op"`
	ModelUs         float64 `json:"model_us_per_op"`
	MeasuredModelUs float64 `json:"measured_model_us_per_op"`
}

// layerInputs is what the arithmetic needs beyond the ladder.
type layerInputs struct {
	wl     workloadDef
	counts opCounts
	// opHostNs is the reference rounds' wall time per logical op (with two
	// workers sharing one P, an op's latency also holds its neighbour's
	// work; wall time per op does not); opModel the mean modeled latency.
	opHostNs float64
	opModel  float64
	// ctrlHostNs and ctrlModelNs are the mean per-op time inside the
	// generator's spans around Alloc/Map/Unmap/Free (traced round).
	ctrlHostNs, ctrlModelNs float64
}

// clientBusy is the client-layer cost of the given numbers of API calls
// at one op size.
func clientBusy(l ladder, ax axis, size int, reads, writes, atomics float64) float64 {
	return reads*ax(l[clientRung("ReadAt", size)]) +
		writes*ax(l[clientRung("WriteAt", size)]) +
		atomics*ax(l["client.CompareSwap"])
}

// aboveClient is a txn/kvstore/index rung's own cost per call: the rung
// minus the client calls it made, costed at the given op size.
func aboveClient(l ladder, ax axis, r rung, size int) float64 {
	return ax(r) - clientBusy(l, ax, size, r.ClientReads, r.ClientWrites, r.ClientAtomics)
}

// layerTable computes the rows for one axis pair.
func layerTable(l ladder, in layerInputs) ([]layerRow, selfSum) {
	c := in.counts
	rows := make([]layerRow, 0, 7)
	one := func(ax axis, op, ctrl float64) (busy, self map[string]float64) {
		busy, self = map[string]float64{}, map[string]float64{}
		readShare := 1.0
		if c.clientReads+c.clientWrites > 0 {
			readShare = c.clientReads / (c.clientReads + c.clientWrites)
		}
		verb := readShare*ax(l["rdma.read"]) + (1-readShare)*ax(l["rdma.write"])
		oneSidedBusy := c.oneSided*verb + c.atomics*ax(l["rdma.cas"])
		sendRecvBusy := c.sendRecv * ax(l["rdma.write"]) // a send is costed as a write of the same size

		// A Transfer reserves the egress line once per 64 KiB segment, and
		// link ops count reservations: cost them per reservation.
		xfer := l["simnet.Transfer"]
		busy["simnet"] = c.linkOps * ratio(ax(xfer), xfer.LinkOps)
		self["simnet"] = busy["simnet"]
		busy["rdma"] = oneSidedBusy + sendRecvBusy
		self["rdma"] = busy["rdma"] - busy["simnet"]
		busy["rpc"] = c.rpcCalls * ax(l["rpc.Call"])
		self["rpc"] = busy["rpc"] - sendRecvBusy
		busy["client"] = clientBusy(l, ax, in.wl.opBytes, c.clientReads, c.clientWrites, c.clientAtomics)
		self["client"] = busy["client"] - oneSidedBusy

		// Everything the control calls cost beyond their RPC round trips
		// is handler time: master placement and replication, memserver
		// registration, seen from outside.
		if ctrl > 0 {
			busy["master"] = ctrl
			self["master"] = ctrl - busy["rpc"]
		}

		rwAttempts := c.txnCommits - c.txnReadonly + c.txnAborts
		self["txn"] = rwAttempts*aboveClient(l, ax, l["txn.RunTx.2"], txnCellSize) +
			c.txnReadonly*aboveClient(l, ax, l["txn.RunReadTx.2"], txnCellSize)
		busy["txn"] = rwAttempts*ax(l["txn.RunTx.2"]) + c.txnReadonly*ax(l["txn.RunReadTx.2"])

		// The index sits on top of its workload, so its self time is what
		// the layers below leave of the measured op.
		if c.indexLookups > 0 {
			busy["index"] = op
			self["index"] = op - busy["client"] - self["txn"]
		}
		return busy, self
	}
	hb, hs := one(hostAxis, in.opHostNs, in.ctrlHostNs)
	mb, ms := one(modelAxis, in.opModel, in.ctrlModelNs)
	sum := selfSum{MeasuredHostUs: in.opHostNs / 1e3, MeasuredModelUs: in.opModel / 1e3}
	for _, name := range []string{"simnet", "rdma", "rpc", "client", "master", "txn", "index"} {
		rows = append(rows, layerRow{
			Layer:      name,
			BusyHostUs: hb[name] / 1e3, SelfHostUs: hs[name] / 1e3,
			BusyModelUs: mb[name] / 1e3, SelfModelUs: ms[name] / 1e3,
		})
		sum.HostUs += hs[name] / 1e3
		sum.ModelUs += ms[name] / 1e3
	}
	return rows, sum
}

// predictedOverMeasured is the 1910.02158 check on the modeled axis: a
// composite op's cost predicted as the sum of the component client calls
// it makes, over its measured cost.
func predictedOverMeasured(l ladder, r rung, size int) float64 {
	if r.ModelNs == 0 {
		return 0
	}
	return clientBusy(l, modelAxis, size, r.ClientReads, r.ClientWrites, r.ClientAtomics) / r.ModelNs
}
