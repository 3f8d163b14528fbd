package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rstore/internal/client"
	"rstore/internal/index"
	"rstore/internal/kvstore"
	"rstore/internal/rdma"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
	"rstore/internal/txn"
	"rstore/internal/workload"
)

// The ladder measures the layers below the API a workload calls: each
// rung is one public function, timed in isolation on both axes on the
// workload's own (now quiet) cluster with the workload's op shapes. The
// cluster-wide counters are read around every rung, so a rung also knows
// how many calls it made into the rungs below — the input to the
// self-time arithmetic in layers.go.

// rung is one measured function.
type rung struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	HostNs  float64 `json:"host_ns"`  // median over batches of the batch's mean
	ModelNs float64 `json:"model_ns"` // mean modeled ns per call

	// Calls into lower layers per rung call.
	ClientReads   float64 `json:"client_reads"`
	ClientWrites  float64 `json:"client_writes"`
	ClientAtomics float64 `json:"client_atomics"`
	WireOneSided  float64 `json:"wire_one_sided"`
	WireAtomics   float64 `json:"wire_atomics"`
	WireSendRecv  float64 `json:"wire_send_recv"`
	LinkOps       float64 `json:"link_ops"`
}

const (
	rungBatches = 5
	rungWarmup  = 4
)

// ladderScale is how long a rung's batches run and how many keys the
// index rungs preload; the smoke test uses the quick one.
type ladderScale struct {
	batchTarget time.Duration
	indexKeys   int
}

var (
	fullLadder  = ladderScale{batchTarget: 25 * time.Millisecond, indexKeys: 1024}
	quickLadder = ladderScale{batchTarget: time.Millisecond, indexKeys: 128}
)

// measureRung times fn: a few warm-up calls (which also size the
// batches), then rungBatches batches whose means' median is the host
// cost. fn returns the call's modeled latency.
func measureRung(p parts, scale ladderScale, name string, fn func(i int) (int64, error)) (rung, error) {
	r := rung{Name: name}
	i := 0
	t0 := time.Now()
	for ; i < rungWarmup; i++ {
		if _, err := fn(i); err != nil {
			return r, fmt.Errorf("ladder %s: %w", name, err)
		}
	}
	per := time.Since(t0) / rungWarmup
	batch := 2000
	if per > 0 {
		batch = int(scale.batchTarget / per)
	}
	if batch < 8 {
		batch = 8
	}
	if batch > 2000 {
		batch = 2000
	}

	before := readClusterCounters(p)
	means := make([]float64, 0, rungBatches)
	var model int64
	for b := 0; b < rungBatches; b++ {
		start := time.Now()
		for k := 0; k < batch; k++ {
			m, err := fn(i)
			if err != nil {
				return r, fmt.Errorf("ladder %s: %w", name, err)
			}
			model += m
			i++
		}
		means = append(means, float64(time.Since(start))/float64(batch))
	}
	after := readClusterCounters(p)

	r.Calls = batch * rungBatches
	n := float64(r.Calls)
	r.HostNs = median(means)
	r.ModelNs = float64(model) / n
	c := perOpCounts(before, after, n)
	r.ClientReads, r.ClientWrites, r.ClientAtomics = c.clientReads, c.clientWrites, c.clientAtomics
	r.WireOneSided, r.WireAtomics, r.WireSendRecv = c.oneSided, c.atomics, c.sendRecv
	r.LinkOps = c.linkOps
	return r, nil
}

// ladder is the set of measured rungs by name.
type ladder map[string]rung

func (l ladder) sorted() []rung {
	out := make([]rung, 0, len(l))
	for _, r := range l {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Sizes the client rungs are always measured at besides the workload's
// own op size: the cell and node sizes the txn and index predictions are
// built from.
var predictionSizes = []int{txnCellSize, indexNodeSize}

func clientRung(kind string, size int) string { return fmt.Sprintf("client.%s.%d", kind, size) }

// runLadder measures every rung on the instance's cluster. It runs after
// the rounds, on the first client, and the simnet rung goes last: raw
// Fabric.Transfer calls reserve link time that later rungs would
// otherwise queue behind in virtual time.
func runLadder(ctx context.Context, wl workloadDef, p parts, quick bool) (ladder, error) {
	scale := fullLadder
	if quick {
		scale = quickLadder
	}
	l := ladder{}
	add := func(name string, fn func(i int) (int64, error)) error {
		r, err := measureRung(p, scale, name, fn)
		if err == nil {
			l[name] = r
		}
		return err
	}
	cli := p.clients[0]
	server := p.cluster.MemoryServerNodes()[0]

	if err := ladderVerbs(ctx, wl, cli, server, p, add); err != nil {
		return nil, err
	}
	if err := ladderRPC(ctx, cli, server, p, add); err != nil {
		return nil, err
	}
	if err := ladderClient(ctx, wl, cli, add); err != nil {
		return nil, err
	}
	if err := ladderTxn(ctx, cli, add); err != nil {
		return nil, err
	}
	if err := ladderKV(ctx, cli, add); err != nil {
		return nil, err
	}
	if err := ladderIndex(ctx, cli, scale.indexKeys, add); err != nil {
		return nil, err
	}

	// One call is one Transfer, alternating between the two legs every
	// verb is made of: a header out, then the fragment (plus header) back.
	fabric := p.cluster.Fabric()
	hdr := cli.Device().Costs().HeaderBytes
	err := add("simnet.Transfer", func(i int) (int64, error) {
		start := fabric.VNow()
		from, to, n := cli.Node(), server, hdr
		if i%2 == 1 {
			from, to, n = server, cli.Node(), wl.fragBytes+hdr
		}
		done, err := fabric.Transfer(from, to, n, start)
		return int64(done - start), err
	})
	return l, err
}

type addRung func(name string, fn func(i int) (int64, error)) error

// ladderVerbs times raw one-sided verbs on a dedicated QP and MR pair, as
// E1 does: PostSend then SendCQ().Next, at the workload's fragment size.
func ladderVerbs(ctx context.Context, wl workloadDef, cli *client.Client, server simnet.NodeID, p parts, add addRung) error {
	srvDev, err := p.cluster.Network().OpenDevice(server)
	if err != nil {
		return err
	}
	lis, err := srvDev.Listen("ladder-raw", nil, rdma.ConnOpts{})
	if err != nil {
		return err
	}
	defer lis.Close()
	size := wl.fragBytes // every workload's is at least the 8 bytes an atomic needs
	remote, err := lis.PD().RegisterMemory(make([]byte, size), rdma.AccessRemoteRead|rdma.AccessRemoteWrite|rdma.AccessRemoteAtomic)
	if err != nil {
		return err
	}
	defer remote.Deregister()
	qp, err := cli.Device().Dial(ctx, server, "ladder-raw", nil, rdma.ConnOpts{})
	if err != nil {
		return err
	}
	defer qp.Close()
	local, err := qp.PD().RegisterMemory(make([]byte, size), rdma.AccessLocalWrite)
	if err != nil {
		return err
	}
	defer local.Deregister()

	post := func(wr rdma.SendWR) (int64, error) {
		wr.RemoteKey = remote.RKey()
		if err := qp.PostSend(wr); err != nil {
			return 0, err
		}
		wc, err := qp.SendCQ().Next(ctx)
		if err != nil {
			return 0, err
		}
		if wc.Status != rdma.StatusSuccess {
			return 0, fmt.Errorf("%v: %v", wr.Op, wc.Status)
		}
		return int64(wc.Latency()), nil
	}
	if err := add("rdma.read", func(int) (int64, error) {
		return post(rdma.SendWR{Op: rdma.OpRead, Local: rdma.SGE{MR: local, Len: wl.fragBytes}})
	}); err != nil {
		return err
	}
	if err := add("rdma.write", func(int) (int64, error) {
		return post(rdma.SendWR{Op: rdma.OpWrite, Local: rdma.SGE{MR: local, Len: wl.fragBytes}})
	}); err != nil {
		return err
	}
	return add("rdma.cas", func(i int) (int64, error) {
		return post(rdma.SendWR{Op: rdma.OpCmpSwap, Local: rdma.SGE{MR: local, Len: 8}, Compare: uint64(i), Swap: uint64(i + 1)})
	})
}

// ladderRPC times one echo round trip on a service registered for the
// purpose: the two-sided path with an empty handler.
func ladderRPC(ctx context.Context, cli *client.Client, server simnet.NodeID, p parts, add addRung) error {
	const mtEcho = 1
	srvDev, err := p.cluster.Network().OpenDevice(server)
	if err != nil {
		return err
	}
	srv, err := rpc.NewServer(srvDev, "ladder-echo", nil, rpc.Options{})
	if err != nil {
		return err
	}
	srv.Handle(mtEcho, func(_ context.Context, _ simnet.NodeID, req *rpc.Decoder) (*rpc.Encoder, error) {
		var e rpc.Encoder
		e.Bytes32(req.Bytes32())
		return &e, req.Err()
	})
	srv.Serve()
	defer srv.Close()
	conn, err := rpc.Dial(ctx, cli.Device(), server, "ladder-echo", nil, rpc.Options{})
	if err != nil {
		return err
	}
	defer conn.Close()
	var e rpc.Encoder
	e.Bytes32(make([]byte, 64))
	req := e.Bytes()
	return add("rpc.Call", func(int) (int64, error) {
		_, lat, err := conn.Call(ctx, mtEcho, req)
		return int64(lat), err
	})
}

// ladderClient times the memory API at the workload's op size and at the
// sizes the predictions need, on a region laid out like the workload's.
func ladderClient(ctx context.Context, wl workloadDef, cli *client.Client, add addRung) error {
	sizes := []int{wl.opBytes}
	for _, s := range predictionSizes {
		if s != wl.opBytes {
			sizes = append(sizes, s)
		}
	}
	const regionSize = 4 << 20
	reg, err := cli.AllocMap(ctx, "ladder.data", regionSize, wl.alloc)
	if err != nil {
		return err
	}
	buf, err := cli.AllocBuf(wl.opBytes + indexNodeSize)
	if err != nil {
		return err
	}
	defer buf.Release()
	for _, size := range sizes {
		size := size
		off := func(i int) uint64 { return uint64(i) * uint64(size) % regionSize }
		if err := add(clientRung("ReadAt", size), func(i int) (int64, error) {
			st, err := reg.ReadAt(ctx, off(i), buf, 0, size)
			return int64(st.Latency()), err
		}); err != nil {
			return err
		}
		if err := add(clientRung("WriteAt", size), func(i int) (int64, error) {
			st, err := reg.WriteAt(ctx, off(i), buf, 0, size)
			return int64(st.Latency()), err
		}); err != nil {
			return err
		}
	}
	// Each CAS swaps in the next value of a counter word, so it always
	// succeeds: the cost of a won lock, not of a retry loop.
	word := uint64(regionSize - 8)
	if err := reg.Write(ctx, word, make([]byte, 8)); err != nil {
		return err
	}
	var cur uint64
	return add("client.CompareSwap", func(int) (int64, error) {
		old, st, err := reg.CompareSwap(ctx, word, cur, cur+1)
		if err == nil && old != cur {
			err = fmt.Errorf("compare-swap lost: word %d, expected %d", old, cur)
		}
		cur++
		return int64(st.Latency()), err
	})
}

// ladderTxn times the transaction layer's entry points on an idle space
// of the workload's geometry.
func ladderTxn(ctx context.Context, cli *client.Client, add addRung) error {
	sp, err := txn.Create(ctx, cli, "ladder.txn", txnOptions(1))
	if err != nil {
		return err
	}
	vnow := func() int64 { return int64(cli.VNow()) }
	body := make([]byte, 16)
	rmw := func(tx *txn.Tx, cell int) error {
		if _, err := tx.Read(ctx, cell); err != nil {
			return err
		}
		return tx.Write(cell, body)
	}
	cell := func(i int) int { return i % (txnAccounts / 2) }
	if err := add("txn.ReadCell", func(i int) (int64, error) {
		v0 := vnow()
		_, _, err := sp.ReadCell(ctx, cell(i))
		return vnow() - v0, err
	}); err != nil {
		return err
	}
	if err := add("txn.RunTx.1", func(i int) (int64, error) {
		v0 := vnow()
		err := sp.RunTx(ctx, func(tx *txn.Tx) error { return rmw(tx, cell(i)) })
		return vnow() - v0, err
	}); err != nil {
		return err
	}
	if err := add("txn.RunTx.2", func(i int) (int64, error) {
		v0 := vnow()
		err := sp.RunTx(ctx, func(tx *txn.Tx) error {
			if err := rmw(tx, cell(i)); err != nil {
				return err
			}
			return rmw(tx, cell(i)+txnAccounts/2)
		})
		return vnow() - v0, err
	}); err != nil {
		return err
	}
	return add("txn.RunReadTx.2", func(i int) (int64, error) {
		v0 := vnow()
		err := sp.RunReadTx(ctx, func(tx *txn.Tx) error {
			if _, err := tx.Read(ctx, cell(i)); err != nil {
				return err
			}
			_, err := tx.Read(ctx, cell(i)+txnAccounts/2)
			return err
		})
		return vnow() - v0, err
	})
}

func ladderKV(ctx context.Context, cli *client.Client, add addRung) error {
	const keys = 256
	kv, err := kvstore.Create(ctx, cli, "ladder.kv", kvstore.Options{SlotSize: 128, Slots: 4096})
	if err != nil {
		return err
	}
	for i := 0; i < keys; i++ {
		if err := kv.Put(ctx, workload.OrderedKey(i), indexVal(i)); err != nil {
			return err
		}
	}
	vnow := func() int64 { return int64(cli.VNow()) }
	if err := add("kvstore.Get", func(i int) (int64, error) {
		v0 := vnow()
		_, err := kv.Get(ctx, workload.OrderedKey(i%keys))
		return vnow() - v0, err
	}); err != nil {
		return err
	}
	return add("kvstore.Put", func(i int) (int64, error) {
		v0 := vnow()
		err := kv.Put(ctx, workload.OrderedKey(i%keys), indexVal(i))
		return vnow() - v0, err
	})
}

// ladderIndex times a point get with the client cache warm (the creating
// handle, its route cache filled by the preload and the warm-up calls)
// and cold (a NoCache handle: every get chases root to leaf on the wire).
func ladderIndex(ctx context.Context, cli *client.Client, nkeys int, add addRung) error {
	tree, err := index.Create(ctx, cli, "ladder.idx", indexOptions())
	if err != nil {
		return err
	}
	keys := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = workload.OrderedKey(i)
		if err := tree.Insert(ctx, keys[i], indexVal(i)); err != nil {
			return err
		}
	}
	coldOpts := indexOptions()
	coldOpts.NoCache = true
	cold, err := index.Open(ctx, cli, "ladder.idx", coldOpts)
	if err != nil {
		return err
	}
	vnow := func() int64 { return int64(cli.VNow()) }
	// A stride coprime with the key count visits leaves out of order.
	key := func(i int) []byte { return keys[i*389%nkeys] }
	if err := add("index.Get.warm", func(i int) (int64, error) {
		v0 := vnow()
		_, err := tree.Get(ctx, key(i))
		return vnow() - v0, err
	}); err != nil {
		return err
	}
	return add("index.Get.cold", func(i int) (int64, error) {
		v0 := vnow()
		_, err := cold.Get(ctx, key(i))
		return vnow() - v0, err
	})
}
