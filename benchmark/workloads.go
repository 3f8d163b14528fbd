package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"rstore/internal/client"
	"rstore/internal/core"
	"rstore/internal/index"
	"rstore/internal/simnet"
	"rstore/internal/txn"
	"rstore/internal/txn/txntest"
	"rstore/internal/workload"
)

// workloadDef is one benchmark workload: a cluster shape, an op mix and a
// reason. rate is the calibrated op count per second of -seconds on the
// 2-vCPU reference box (all workers together): the timed phase runs
// rate x seconds ops, a fixed count, so the same seed gives the same op
// sequence and the modeled metrics of single-worker workloads repeat
// exactly. The rates are frozen; recalibrating them is a benchmark change.
type workloadDef struct {
	name    string
	why     string
	workers int
	rate    int
	// fragBytes and opBytes shape the ladder: the wire fragment the raw
	// simnet/rdma rungs move and the client-level op the client rungs
	// issue; alloc is the layout of the region those client rungs hit.
	fragBytes int
	opBytes   int
	alloc     client.AllocOptions
	// deterministic workloads have one worker and a single master: their
	// counts and modeled times are a function of the seed alone. The
	// others race in real time (two workers; replication fan-out).
	deterministic bool
	// The cluster: machines (masters first, the rest memory servers) plus
	// one client-only node per worker, and the heartbeat interval (see
	// quietHeartbeat).
	machines, masters int
	heartbeat         time.Duration
	// build makes the workload's instance on a booted cluster: clients,
	// regions, preload; quick shrinks the preload for the smoke test.
	build func(ctx context.Context, cl *core.Cluster, seed int64, quick bool) (instance, error)
}

const stripeUnit = 64 << 10

var workloads = []workloadDef{
	{
		name: "read_small",
		why: "one 64 B one-sided read per op: host time is pure per-op overhead (simnet link reservation, " +
			"rdma post/completion hand-off, client envelope, telemetry); bytes moved are irrelevant",
		workers: 1, rate: 45000,
		fragBytes: 64, opBytes: 64,
		alloc:         client.AllocOptions{StripeUnit: stripeUnit},
		deterministic: true,
		machines:      4, masters: 1, heartbeat: quietHeartbeat,
		build: buildReadSmall,
	},
	{
		name: "stripe_mixed",
		why: "256 KiB striped, replicated reads and writes from two clients: bytes-bound, " +
			"fragment planning, per-copy writes and contended links; a read gain that costs writes shows",
		workers: 2, rate: 5000,
		fragBytes: stripeUnit, opBytes: stripeBlock,
		alloc:    client.AllocOptions{StripeUnit: stripeUnit, Replicas: 1},
		machines: 5, masters: 1, heartbeat: quietHeartbeat,
		build: buildStripeMixed,
	},
	{
		name: "txn_transfer",
		why: "zipf-contended 2-read/2-write transactions from two clients: work sits in txn " +
			"(log, CAS locks, validate, install, aborts, backoff) and client atomics; must not move read_small",
		workers: 2, rate: 4400,
		fragBytes: txnCellSize, opBytes: txnCellSize,
		alloc:    client.AllocOptions{StripeUnit: stripeUnit},
		machines: 4, masters: 1, heartbeat: quietHeartbeat,
		build: buildTxnTransfer,
	},
	{
		name: "index_mixed",
		why: "90/4/3/3 get/scan/insert/delete on a client-cached B+tree: route cache, fence checks, " +
			"blooms, splits over txn cells; the cache fits while inserts force invalidations",
		workers: 1, rate: 17000,
		fragBytes: indexNodeSize, opBytes: indexNodeSize,
		alloc:         client.AllocOptions{StripeUnit: stripeUnit},
		deterministic: true,
		machines:      4, masters: 1, heartbeat: quietHeartbeat,
		build: buildIndexMixed,
	},
	{
		name: "control_churn",
		why: "alloc/map/io/unmap/free cycles against a 3-replica master: two-sided rpc, placement, " +
			"replication commit-wait; bypasses the data path, so data-path changes must leave it flat",
		workers: 1, rate: 1250,
		fragBytes: 64, opBytes: 64,
		alloc:    client.AllocOptions{StripeUnit: stripeUnit, Replicas: 1},
		machines: 6, masters: 3, heartbeat: churnHeartbeat,
		build: buildControlChurn,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// quietHeartbeat keeps wall-clock heartbeats (and the telemetry snapshots
// they carry) out of the timed phase of the single-master workloads, so
// wire counts and modeled times depend on the op sequence alone. The
// replicated master of control_churn derives its lease beats, dial
// retries and shutdown wait from the same interval: it keeps the system's
// default (100 ms), under which a cluster boots in a steady 40 ms, where
// at 1 s a boot took anything from 9 to 190 ms. Its heartbeats are a few
// dozen wire ops a second beside the 38 k of the workload.
const (
	quietHeartbeat = time.Hour
	churnHeartbeat = 100 * time.Millisecond
)

// setup boots the workload's cluster and builds its instance on it; a
// failed build closes the cluster again.
func (wl workloadDef) setup(ctx context.Context, seed int64, quick bool) (instance, error) {
	cl, err := core.Start(ctx, core.Config{
		Machines:          wl.machines,
		MasterReplicas:    wl.masters,
		ExtraClientNodes:  wl.workers,
		ServerCapacity:    64 << 20,
		HeartbeatInterval: wl.heartbeat,
	})
	if err != nil {
		return nil, err
	}
	inst, err := wl.build(ctx, cl, seed, quick)
	if err != nil {
		cl.Close()
		return nil, err
	}
	return inst, nil
}

// clientNode is the i-th client-only node: they follow the machines.
func clientNode(cl *core.Cluster, i int) simnet.NodeID {
	return simnet.NodeID(len(cl.MasterNodes()) + len(cl.MemoryServerNodes()) + i)
}

// mix64 is splitmix64's finalizer: the pattern generator for verified
// payloads.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

var errVerify = errors.New("output does not verify")

// ---------------------------------------------------------------- read_small

const readSmallRegion = 48 << 20

type readSmall struct {
	cl  *core.Cluster
	cli *client.Client
	reg *client.Region
	buf *client.Buf
	pat workload.AccessPattern
	key uint64
}

func buildReadSmall(ctx context.Context, cl *core.Cluster, seed int64, _ bool) (instance, error) {
	var err error
	rs := &readSmall{cl: cl, key: mix64(uint64(seed))}
	if rs.cli, err = cl.NewClient(ctx, clientNode(cl, 0)); err != nil {
		return nil, err
	}
	if rs.reg, err = rs.cli.AllocMap(ctx, "read_small", readSmallRegion, client.AllocOptions{StripeUnit: stripeUnit}); err != nil {
		return nil, err
	}
	// Every 8-byte word of the region is a function of (key, word index).
	const chunk = 1 << 20
	fill, err := rs.cli.AllocBuf(chunk)
	if err != nil {
		return nil, err
	}
	for off := uint64(0); off < readSmallRegion; off += chunk {
		b := fill.Bytes()
		for i := 0; i < chunk; i += 8 {
			binary.LittleEndian.PutUint64(b[i:], mix64(rs.key+(off+uint64(i))/8))
		}
		if _, err := rs.reg.WriteAt(ctx, off, fill, 0, chunk); err != nil {
			return nil, err
		}
	}
	fill.Release()
	if rs.buf, err = rs.cli.AllocBuf(64); err != nil {
		return nil, err
	}
	if rs.pat, err = workload.NewUniform(readSmallRegion, 64, seed); err != nil {
		return nil, err
	}
	return rs, nil
}

func (rs *readSmall) op(ctx context.Context, w *worker) (uint8, int64, error) {
	off := rs.pat.Next()
	s := w.begin(spReadAt)
	st, err := rs.reg.ReadAt(ctx, off, rs.buf, 0, 64)
	lat := int64(st.Latency())
	w.end(s, lat)
	if err != nil {
		return clsRead, 0, err
	}
	b := rs.buf.Bytes()
	for i := 0; i < 64; i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != mix64(rs.key+(off+uint64(i))/8) {
			return clsRead, lat, fmt.Errorf("read_small offset %d: %w", off, errVerify)
		}
	}
	return clsRead, lat, nil
}

func (rs *readSmall) verify(context.Context) (int, error) { return 0, nil } // every read is checked in op

func (rs *readSmall) parts() parts {
	return parts{cluster: rs.cl, clients: []*client.Client{rs.cli}}
}

func (rs *readSmall) close() { rs.cl.Close() }

// -------------------------------------------------------------- stripe_mixed

const (
	// stripeRegion is 8 MiB a client, not the 32 MiB the issue planned:
	// with replicas that put 128 MiB of server memory in play, and last-
	// level-cache contention on the shared host moved host_ops_per_s by
	// 10 % between runs; at 8 MiB it is 3 %. The op shape is unchanged.
	stripeRegion  = 8 << 20
	stripeBlock   = 256 << 10
	stripeBlocks  = stripeRegion / stripeBlock
	stripePage    = 4 << 10
	stripeSources = 2
)

// stripeWorker owns one client, one region and the write history of its
// blocks. A block written at version v holds source buffer v%stripeSources
// with the first word of every 4 KiB page replaced by a stamp of
// (key, absolute offset, version), so a misplaced, stale or torn fragment
// shows.
type stripeWorker struct {
	cli  *client.Client
	reg  *client.Region
	rbuf *client.Buf
	src  [stripeSources]*client.Buf
	ver  [stripeBlocks]uint32
	rng  *rand.Rand
	key  uint64
}

type stripeMixed struct {
	cl *core.Cluster
	w  [2]*stripeWorker
}

func buildStripeMixed(ctx context.Context, cl *core.Cluster, seed int64, _ bool) (instance, error) {
	var err error
	sm := &stripeMixed{cl: cl}
	for i := range sm.w {
		if sm.w[i], err = newStripeWorker(ctx, cl, i, seed); err != nil {
			return nil, err
		}
	}
	return sm, nil
}

func newStripeWorker(ctx context.Context, cl *core.Cluster, i int, seed int64) (*stripeWorker, error) {
	sw := &stripeWorker{
		rng: rand.New(rand.NewSource(seed*31 + int64(i))),
		key: mix64(uint64(seed)<<8 | uint64(i)),
	}
	var err error
	if sw.cli, err = cl.NewClient(ctx, clientNode(cl, i)); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("stripe_mixed.%d", i)
	if sw.reg, err = sw.cli.AllocMap(ctx, name, stripeRegion, client.AllocOptions{StripeUnit: stripeUnit, Replicas: 1}); err != nil {
		return nil, err
	}
	if sw.rbuf, err = sw.cli.AllocBuf(stripeBlock); err != nil {
		return nil, err
	}
	for s := range sw.src {
		if sw.src[s], err = sw.cli.AllocBuf(stripeBlock); err != nil {
			return nil, err
		}
		b := sw.src[s].Bytes()
		for j := 0; j < stripeBlock; j += 8 {
			binary.LittleEndian.PutUint64(b[j:], mix64(sw.key^uint64(s)<<56+uint64(j)))
		}
	}
	for blk := 0; blk < stripeBlocks; blk++ {
		if _, err := sw.write(ctx, blk, 0); err != nil {
			return nil, err
		}
	}
	return sw, nil
}

func (sw *stripeWorker) stamp(blk int, page int, ver uint32) uint64 {
	off := uint64(blk)*stripeBlock + uint64(page)*stripePage
	return mix64(sw.key + off<<20 + uint64(ver))
}

func (sw *stripeWorker) write(ctx context.Context, blk int, ver uint32) (client.IOStat, error) {
	src := sw.src[ver%stripeSources]
	b := src.Bytes()
	for p := 0; p < stripeBlock/stripePage; p++ {
		binary.LittleEndian.PutUint64(b[p*stripePage:], sw.stamp(blk, p, ver))
	}
	st, err := sw.reg.WriteAt(ctx, uint64(blk)*stripeBlock, src, 0, stripeBlock)
	if err == nil {
		sw.ver[blk] = ver
	}
	return st, err
}

// check verifies the block just read into rbuf: every page stamp, and the
// body of the given pages (all of them when page < 0).
func (sw *stripeWorker) check(blk int, page int) error {
	ver := sw.ver[blk]
	got := sw.rbuf.Bytes()
	want := sw.src[ver%stripeSources].Bytes()
	for p := 0; p < stripeBlock/stripePage; p++ {
		lo := p * stripePage
		if binary.LittleEndian.Uint64(got[lo:]) != sw.stamp(blk, p, ver) {
			return fmt.Errorf("stripe_mixed block %d page %d stamp: %w", blk, p, errVerify)
		}
		if (page < 0 || page == p) && !bytes.Equal(got[lo+8:lo+stripePage], want[lo+8:lo+stripePage]) {
			return fmt.Errorf("stripe_mixed block %d page %d body: %w", blk, p, errVerify)
		}
	}
	return nil
}

func (sm *stripeMixed) op(ctx context.Context, w *worker) (uint8, int64, error) {
	sw := sm.w[w.id]
	blk := sw.rng.Intn(stripeBlocks)
	if sw.rng.Intn(2) == 0 {
		s := w.begin(spReadAt)
		st, err := sw.reg.ReadAt(ctx, uint64(blk)*stripeBlock, sw.rbuf, 0, stripeBlock)
		lat := int64(st.Latency())
		w.end(s, lat)
		if err != nil {
			return clsRead, 0, err
		}
		return clsRead, lat, sw.check(blk, sw.rng.Intn(stripeBlock/stripePage))
	}
	s := w.begin(spWriteAt)
	st, err := sw.write(ctx, blk, sw.ver[blk]+1)
	lat := int64(st.Latency())
	w.end(s, lat)
	return clsWrite, lat, err
}

// verify sweeps every block of both regions against the write history.
func (sm *stripeMixed) verify(ctx context.Context) (int, error) {
	bad := 0
	for _, sw := range sm.w {
		for blk := 0; blk < stripeBlocks; blk++ {
			if _, err := sw.reg.ReadAt(ctx, uint64(blk)*stripeBlock, sw.rbuf, 0, stripeBlock); err != nil {
				return bad, err
			}
			if sw.check(blk, -1) != nil {
				bad++
			}
		}
	}
	return bad, nil
}

func (sm *stripeMixed) parts() parts {
	return parts{cluster: sm.cl, clients: []*client.Client{sm.w[0].cli, sm.w[1].cli}}
}

func (sm *stripeMixed) close() { sm.cl.Close() }

// -------------------------------------------------------------- txn_transfer

const (
	txnAccounts = 1024
	txnCellSize = 64
	txnInitial  = int64(1000)
	txnTheta    = 1.1
	// txnStaleWindow is longer than the virtual time a whole run spans,
	// so no lock is ever judged stale: every client of this workload stays
	// alive. At E10's 500 µs the benchmark reproduces ROADMAP item 1 — a
	// live owner's lock is broken and updates are lost — in about one 5 s
	// run in four (measured on one P), and the driver's contract admits no
	// workload with failing ops. verify still fails the run on any drift
	// or broken lock.
	txnStaleWindow = 10 * time.Second
)

// txnOptions is E10's space and retry policy at this workload's size.
func txnOptions(seed int64) txn.Options {
	return txn.Options{
		Cells:            txnAccounts,
		CellSize:         txnCellSize,
		StaleLockTimeout: txnStaleWindow,
		Retry: client.RetryPolicy{
			MaxAttempts: 64,
			BaseDelay:   2 * time.Microsecond,
			MaxDelay:    64 * time.Microsecond,
			Multiplier:  2,
			Jitter:      0.2,
			Seed:        seed,
		},
	}
}

type txnWorker struct {
	cli *client.Client
	sp  *txn.Space
	pat workload.AccessPattern
	seq int
}

type txnTransfer struct {
	cl *core.Cluster
	w  [2]*txnWorker
}

func buildTxnTransfer(ctx context.Context, cl *core.Cluster, seed int64, _ bool) (instance, error) {
	var err error
	tt := &txnTransfer{cl: cl}
	for i := range tt.w {
		tw := &txnWorker{}
		if tw.cli, err = cl.NewClient(ctx, clientNode(cl, i)); err != nil {
			return nil, err
		}
		if i == 0 {
			tw.sp, err = txn.Create(ctx, tw.cli, "bank", txnOptions(seed))
			if err == nil {
				err = txntest.SetupBank(ctx, tw.sp, txnAccounts, txnInitial)
			}
		} else {
			tw.sp, err = txn.Open(ctx, tw.cli, "bank", txnOptions(seed))
		}
		if err == nil {
			tw.pat, err = workload.NewZipfian(txnAccounts*txnCellSize, txnCellSize, txnTheta, seed*31+int64(i))
		}
		if err != nil {
			return nil, err
		}
		tt.w[i] = tw
	}
	return tt, nil
}

func (tt *txnTransfer) op(ctx context.Context, w *worker) (uint8, int64, error) {
	tw := tt.w[w.id]
	from := int(tw.pat.Next() / txnCellSize)
	to := int(tw.pat.Next() / txnCellSize)
	for to == from {
		to = int(tw.pat.Next() / txnCellSize)
	}
	tw.seq++
	stamp := txntest.Stamp(w.id+1, tw.seq)
	v0 := tw.cli.VNow()
	s := w.begin(spRunTx)
	err := tw.sp.RunTx(ctx, func(tx *txn.Tx) error {
		fb, err := tt.txRead(ctx, w, tw, tx, from)
		if err != nil {
			return err
		}
		tb, err := tt.txRead(ctx, w, tw, tx, to)
		if err != nil {
			return err
		}
		fBal, _ := txntest.DecodeAccount(fb)
		tBal, _ := txntest.DecodeAccount(tb)
		c := w.begin(spTxWrite)
		err = tx.Write(from, txntest.EncodeAccount(fBal-1, stamp))
		if err == nil {
			err = tx.Write(to, txntest.EncodeAccount(tBal+1, stamp))
		}
		w.end(c, 0) // writes are buffered locally until commit
		return err
	})
	lat := int64(tw.cli.VNow() - v0)
	w.end(s, lat)
	return clsTransfer, lat, err
}

func (tt *txnTransfer) txRead(ctx context.Context, w *worker, tw *txnWorker, tx *txn.Tx, cell int) ([]byte, error) {
	if !w.tracing() {
		return tx.Read(ctx, cell)
	}
	v0 := tw.cli.VNow()
	c := w.begin(spTxRead)
	b, err := tx.Read(ctx, cell)
	w.end(c, int64(tw.cli.VNow()-v0))
	return b, err
}

// verify sweeps every account: transfers move value, so any drift of the
// total is lost or duplicated updates (ROADMAP item 1 is a live defect of
// exactly this kind — it is reported, never retried around), and a broken
// lock with every client alive is the same defect seen earlier.
func (tt *txnTransfer) verify(ctx context.Context) (int, error) {
	final, err := txntest.Sweep(ctx, tt.w[0].sp, txnAccounts)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, a := range final {
		total += a.Balance
	}
	drift := total - txnInitial*txnAccounts
	if drift < 0 {
		drift = -drift
	}
	breaks := tt.cl.TelemetrySnapshot().Counter("txn.lock_breaks")
	if drift+breaks > 0 {
		fmt.Fprintf(os.Stderr, "txn_transfer: balance total drifted by %d, %d locks broken with every client alive\n", drift, breaks)
	}
	return int(drift + breaks), nil
}

func (tt *txnTransfer) parts() parts {
	return parts{cluster: tt.cl, clients: []*client.Client{tt.w[0].cli, tt.w[1].cli}}
}

func (tt *txnTransfer) close() { tt.cl.Close() }

// --------------------------------------------------------------- index_mixed

const (
	indexKeys      = 4096 // preloaded even ids; odd ids are the insert pool
	indexQuickKeys = 512  // the smoke test's preload
	indexNodeSize  = 1024
	indexScanLen   = 16
	indexTheta     = 1.1
)

func indexOptions() index.Options {
	return index.Options{NodeSize: indexNodeSize, MaxKey: 32}
}

type indexMixed struct {
	cl   *core.Cluster
	cli  *client.Client
	tree *index.Tree
	keys [][]byte // by id; even ids preloaded
	vals [][]byte
	hot  workload.AccessPattern // zipf over preloaded keys
	rng  *rand.Rand
	n    int     // preloaded keys
	live []int32 // inserted and not yet deleted odd ids
	in   []bool  // by odd id's index: currently in the tree
}

func indexVal(id int) []byte { return []byte(fmt.Sprintf("value-%010d", id)) }

func buildIndexMixed(ctx context.Context, cl *core.Cluster, seed int64, quick bool) (instance, error) {
	var err error
	n := indexKeys
	if quick {
		n = indexQuickKeys
	}
	im := &indexMixed{
		cl:   cl,
		rng:  rand.New(rand.NewSource(seed)),
		n:    n,
		live: make([]int32, 0, n),
		in:   make([]bool, n),
	}
	for id := 0; id < 2*n; id++ {
		im.keys = append(im.keys, workload.OrderedKey(id))
		im.vals = append(im.vals, indexVal(id))
	}
	if im.cli, err = cl.NewClient(ctx, clientNode(cl, 0)); err == nil {
		im.tree, err = index.Create(ctx, im.cli, "index_mixed", indexOptions())
	}
	if err == nil {
		im.hot, err = workload.NewZipfian(uint64(n), 1, indexTheta, seed+1)
	}
	for i := 0; err == nil && i < n; i++ {
		err = im.tree.Insert(ctx, im.keys[2*i], im.vals[2*i])
	}
	if err != nil {
		return nil, err
	}
	return im, nil
}

func (im *indexMixed) op(ctx context.Context, w *worker) (uint8, int64, error) {
	v0 := im.cli.VNow()
	var cls uint8
	var err error
	switch p := im.rng.Intn(100); {
	case p < 90:
		cls = clsGet
		id := 2 * int(im.hot.Next())
		s := w.begin(spIndexGet)
		var val []byte
		val, err = im.tree.Get(ctx, im.keys[id])
		w.end(s, int64(im.cli.VNow()-v0))
		if err == nil && !bytes.Equal(val, im.vals[id]) {
			err = fmt.Errorf("index_mixed get %s: %w", im.keys[id], errVerify)
		}
	case p < 94:
		cls = clsScan
		first := im.rng.Intn(im.n - indexScanLen)
		s := w.begin(spIndexScan)
		var got []index.Entry
		got, err = im.tree.Scan(ctx, im.keys[2*first], im.keys[2*(first+indexScanLen)])
		w.end(s, int64(im.cli.VNow()-v0))
		if err == nil {
			err = im.checkScan(first, got)
		}
	case p < 97 || len(im.live) == 0:
		cls = clsInsert
		slot := im.rng.Intn(im.n)
		for im.in[slot] {
			slot = im.rng.Intn(im.n)
		}
		id := 2*slot + 1
		s := w.begin(spIndexInsert)
		err = im.tree.Insert(ctx, im.keys[id], im.vals[id])
		w.end(s, int64(im.cli.VNow()-v0))
		if err == nil {
			im.in[slot] = true
			im.live = append(im.live, int32(slot))
		}
	default:
		cls = clsDelete
		i := im.rng.Intn(len(im.live))
		slot := int(im.live[i])
		s := w.begin(spIndexDelete)
		err = im.tree.Delete(ctx, im.keys[2*slot+1])
		w.end(s, int64(im.cli.VNow()-v0))
		if err == nil {
			im.in[slot] = false
			im.live[i] = im.live[len(im.live)-1]
			im.live = im.live[:len(im.live)-1]
		}
	}
	return cls, int64(im.cli.VNow() - v0), err
}

// checkScan requires ascending keys inside the bounds, every preloaded
// key of the range with its value, and nothing between them but live
// inserted keys.
func (im *indexMixed) checkScan(first int, got []index.Entry) error {
	id := 2 * first
	end := 2 * (first + indexScanLen)
	for _, e := range got {
		for id < end && id%2 == 1 && !im.in[id/2] {
			id++ // odd ids not in the tree are rightly absent
		}
		if id >= end || !bytes.Equal(e.Key, im.keys[id]) || !bytes.Equal(e.Val, im.vals[id]) {
			return fmt.Errorf("index_mixed scan from %s: entry %s: %w", im.keys[2*first], e.Key, errVerify)
		}
		id++
	}
	for ; id < end; id++ {
		if id%2 == 0 || im.in[id/2] {
			return fmt.Errorf("index_mixed scan from %s: missing %s: %w", im.keys[2*first], im.keys[id], errVerify)
		}
	}
	return nil
}

// verify probes a 256-slot sample of the insert pool: live keys present
// with their value, deleted or never-inserted ones absent.
func (im *indexMixed) verify(ctx context.Context) (int, error) {
	bad := 0
	for i := 0; i < 256; i++ {
		slot := im.rng.Intn(im.n)
		val, err := im.tree.Get(ctx, im.keys[2*slot+1])
		switch {
		case im.in[slot] && (err != nil || !bytes.Equal(val, im.vals[2*slot+1])):
			bad++
		case !im.in[slot] && !errors.Is(err, index.ErrNotFound):
			bad++
		}
	}
	return bad, nil
}

func (im *indexMixed) parts() parts {
	return parts{cluster: im.cl, clients: []*client.Client{im.cli}, tree: im.tree}
}

func (im *indexMixed) close() { im.cl.Close() }

// ------------------------------------------------------------- control_churn

type controlChurn struct {
	cl  *core.Cluster
	cli *client.Client
	buf *client.Buf
	key uint64
	n   uint64
}

func buildControlChurn(ctx context.Context, cl *core.Cluster, seed int64, _ bool) (instance, error) {
	var err error
	cc := &controlChurn{cl: cl, key: mix64(uint64(seed))}
	if cc.cli, err = cl.NewClient(ctx, clientNode(cl, 0)); err == nil {
		cc.buf, err = cc.cli.AllocBuf(128)
	}
	if err != nil {
		return nil, err
	}
	return cc, nil
}

// ctrlModel is the client's modeled control-path time so far.
func (cc *controlChurn) ctrlModel() int64 { return int64(cc.cli.ControlStats().Total()) }

func (cc *controlChurn) op(ctx context.Context, w *worker) (uint8, int64, error) {
	const name = "churn"
	cc.n++
	c0 := cc.ctrlModel()
	var data int64 // modeled data-path time of the write and read-back

	s := w.begin(spAlloc)
	c := c0
	_, err := cc.cli.Alloc(ctx, name, 1<<20, client.AllocOptions{Replicas: 1})
	w.end(s, cc.step(w, &c))
	if err != nil {
		return clsAlloc, 0, err
	}

	s = w.begin(spMap)
	reg, err := cc.cli.Map(ctx, name)
	w.end(s, cc.step(w, &c))
	if err != nil {
		return clsMap, 0, err
	}

	b := cc.buf.Bytes()
	for i := 0; i < 64; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], mix64(cc.key+cc.n*8+uint64(i)))
	}
	s = w.begin(spWriteAt)
	st, err := reg.WriteAt(ctx, 0, cc.buf, 0, 64)
	w.end(s, int64(st.Latency()))
	if err != nil {
		return clsWrite, 0, err
	}
	data += int64(st.Latency())

	s = w.begin(spReadAt)
	st, err = reg.ReadAt(ctx, 0, cc.buf, 64, 64)
	w.end(s, int64(st.Latency()))
	if err != nil {
		return clsRead, 0, err
	}
	data += int64(st.Latency())
	if !bytes.Equal(b[:64], b[64:128]) {
		return clsRead, 0, fmt.Errorf("control_churn cycle %d read-back: %w", cc.n, errVerify)
	}

	s = w.begin(spUnmap)
	err = reg.Unmap(ctx)
	w.end(s, cc.step(w, &c))
	if err != nil {
		return clsUnmap, 0, err
	}

	s = w.begin(spFree)
	err = cc.cli.Free(ctx, name)
	w.end(s, cc.step(w, &c))
	return clsCycle, cc.ctrlModel() - c0 + data, err
}

// step returns the modeled control time since *prev when spans want it.
func (cc *controlChurn) step(w *worker, prev *int64) int64 {
	if !w.tracing() {
		return 0
	}
	now := cc.ctrlModel()
	d := now - *prev
	*prev = now
	return d
}

// verify requires the control plane to be back where it started: no
// region listed, and the master's region gauge at zero.
func (cc *controlChurn) verify(ctx context.Context) (int, error) {
	regs, err := cc.cli.ListRegions(ctx)
	if err != nil {
		return 0, err
	}
	bad := len(regs)
	if g := cc.cl.Master().Telemetry().Snapshot().Gauge("master.regions"); g != 0 {
		bad += int(g)
	}
	return bad, nil
}

func (cc *controlChurn) parts() parts {
	return parts{cluster: cc.cl, clients: []*client.Client{cc.cli}}
}

func (cc *controlChurn) close() { cc.cl.Close() }
