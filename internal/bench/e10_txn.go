package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rstore/internal/client"
	"rstore/internal/core"
	"rstore/internal/proto"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
	"rstore/internal/txn"
	"rstore/internal/txn/txntest"
	"rstore/internal/workload"
)

// E10Workers is the contention sweep of the transaction experiment.
var E10Workers = []int{1, 4, 16}

// E10Skews are the access distributions the transfer pairs are drawn
// from. Higher theta concentrates traffic on fewer accounts, driving the
// optimistic abort rate up without changing offered load.
var E10Skews = []struct {
	Name  string
	Theta float64
}{
	{"uniform", 0},
	{"zipf-1.2", 1.2},
	{"zipf-3.0", 3.0},
}

const (
	e10Accounts  = 64
	e10CellSize  = 64
	e10Transfers = 40 // per worker
	e10Initial   = int64(1000)
)

// E10TxnContention measures the optimistic commit protocol (not in the
// paper, which stops at raw one-sided verbs): bank transfers between two
// accounts drawn from a skewed distribution, swept over worker count and
// zipfian theta. Aborts are per-attempt (a transfer may abort several
// times before committing); commit latency is the modeled time of the
// winning attempt's commit rounds only, so it isolates protocol overhead
// from business reads. The final rows pit an uncontended two-cell commit
// against a pair of sequential one-sided writes — the design's promise is
// that the transactional envelope costs at most 2x the raw write pair it
// replaces.
func E10TxnContention(ctx context.Context) (*metricsTable, error) {
	tbl := newTable("E10: optimistic txn abort rate and commit latency vs contention (modeled)",
		"workers", "skew", "committed", "aborts", "abort-rate", "p50-commit", "p99-commit")
	for _, workers := range E10Workers {
		for _, skew := range E10Skews {
			row, err := e10Run(ctx, workers, skew.Name, skew.Theta)
			if err != nil {
				return nil, fmt.Errorf("e10 %d workers %s: %w", workers, skew.Name, err)
			}
			tbl.AddRow(row...)
		}
	}

	commit, pair, err := e10Baseline(ctx)
	if err != nil {
		return nil, fmt.Errorf("e10 baseline: %w", err)
	}
	ratio := float64(commit) / float64(pair)
	tbl.Footer = fmt.Sprintf(
		"baseline: uncontended 2-cell commit %v vs sequential one-sided write pair %v = %.2fx (bound 2x); aborts are per-attempt",
		commit, pair, ratio)
	return tbl, nil
}

func e10Run(ctx context.Context, workers int, skewName string, theta float64) ([]interface{}, error) {
	cluster, err := core.Start(ctx, core.Config{
		Machines:       4,
		ServerCapacity: 64 << 20,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	// Setup runs on its own client so the measurement client's
	// txn.commit_latency histogram sees transfer commits only.
	setupCli, err := cluster.NewClient(ctx, cluster.MemoryServerNodes()[0])
	if err != nil {
		return nil, err
	}
	defer setupCli.Close()
	cli, err := cluster.NewClient(ctx, cluster.MemoryServerNodes()[0])
	if err != nil {
		return nil, err
	}
	defer cli.Close()

	setup, err := txn.Create(ctx, setupCli, "e10", e10Options())
	if err != nil {
		return nil, err
	}
	if err := txntest.SetupBank(ctx, setup, e10Accounts, e10Initial); err != nil {
		return nil, err
	}

	tel := cli.Telemetry()
	commits0 := tel.Counter("txn.commits").Value()
	aborts0 := tel.Counter("txn.aborts").Value()
	h := txntest.NewHistory(cluster.Fabric().VNow)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 1; w <= workers; w++ {
		wsp, err := txn.Open(ctx, cli, "e10", e10Options())
		if err != nil {
			return nil, err
		}
		var pattern workload.AccessPattern
		if theta > 0 {
			pattern, err = workload.NewZipfian(e10Accounts*e10CellSize, e10CellSize, theta, 20150701+int64(w))
		} else {
			pattern, err = workload.NewUniform(e10Accounts*e10CellSize, e10CellSize, 20150701+int64(w))
		}
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(w int, wsp *txn.Space, pattern workload.AccessPattern) {
			defer wg.Done()
			account := func() int { return int(pattern.Next() / e10CellSize) }
			for i := 0; i < e10Transfers; i++ {
				from := account()
				to := account()
				for to == from {
					to = account()
				}
				err := txntest.Transfer(ctx, wsp, h, w, i, from, to, 1, nil)
				if err != nil {
					errs <- fmt.Errorf("worker %d transfer %d: %w", w, i, err)
					return
				}
			}
		}(w, wsp, pattern)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}

	// The books must still balance — the bench reuses the chaos checker.
	final, err := txntest.Sweep(ctx, setup, e10Accounts)
	if err != nil {
		return nil, err
	}
	if vs := txntest.Check(h, final, e10Accounts, e10Initial); len(vs) > 0 {
		return nil, fmt.Errorf("history not serializable: %s", vs[0])
	}

	commits := tel.Counter("txn.commits").Value() - commits0
	aborts := tel.Counter("txn.aborts").Value() - aborts0
	rate := 0.0
	if commits+aborts > 0 {
		rate = float64(aborts) / float64(commits+aborts)
	}
	hist := tel.Histogram("txn.commit_latency")
	p50 := time.Duration(hist.Quantile(0.50))
	p99 := time.Duration(hist.Quantile(0.99))
	return []interface{}{workers, skewName, commits, aborts, telemetry.Percent(rate), p50, p99}, nil
}

// e10Baseline times the transactional envelope against the raw verbs it
// replaces, on an otherwise idle cluster: a two-cell read-modify-write
// commit (record, parallel locks, decide, parallel install — the
// business reads are excluded, they exist in both designs) vs two
// sequential one-sided cell writes to the same stripes.
//
// Placement matters as much as round count here, so the bench arranges
// it the way a deployed client would: the private log slot is pinned to
// the client-local server (the record and decision rounds never cross
// the wire at full cost) while the shared data cells live on remote
// servers, and the raw write pair targets cells of identical locality.
func e10Baseline(ctx context.Context) (commit, pair time.Duration, err error) {
	cluster, err := core.Start(ctx, core.Config{
		Machines:       4,
		ServerCapacity: 64 << 20,
	})
	if err != nil {
		return 0, 0, err
	}
	defer cluster.Close()
	local := cluster.MemoryServerNodes()[0]
	setupCli, err := cluster.NewClient(ctx, local)
	if err != nil {
		return 0, 0, err
	}
	defer setupCli.Close()
	cli, err := cluster.NewClient(ctx, local)
	if err != nil {
		return 0, 0, err
	}
	defer cli.Close()

	opts := e10BaseOptions()
	if _, err := txn.Create(ctx, setupCli, "e10base", opts); err != nil {
		return 0, 0, err
	}

	// Pick the measurement handle's log slot so it lands on the local
	// server. Pinned Owner o writes records at offset o*LogSlotSize; with
	// LogSlotSize == StripeUnit that is stripe unit o, which the layout
	// contract places in Extents[o % len]. Owner 1 is skipped: Create's
	// handle auto-claimed it.
	logReg, err := cli.Map(ctx, "e10base.txnlog")
	if err != nil {
		return 0, 0, err
	}
	owner := 2
	for o := 2; o <= opts.Owners; o++ {
		if extentServer(logReg.Info(), uint64(o)*opts.StripeUnit) == local {
			owner = o
			break
		}
	}
	opts.Owner = owner

	// And the two cells on remote servers — distinct ones when the layout
	// offers them, so the parallel lock and install fan-outs genuinely
	// overlap their round trips.
	dataReg, err := cli.Map(ctx, "e10base")
	if err != nil {
		return 0, 0, err
	}
	cellA, cellB := e10RemoteCells(dataReg.Info(), local, opts)

	sp, err := txn.Open(ctx, cli, "e10base", opts)
	if err != nil {
		return 0, 0, err
	}
	hist := cli.Telemetry().Histogram("txn.commit_latency")
	n0 := hist.Count()
	sum0 := hist.Sum()
	commit, err = meanLatency(20, func() (time.Duration, error) {
		start := cli.VNow()
		err := sp.RunTx(ctx, func(tx *txn.Tx) error {
			for i, cell := range [2]int{cellA, cellB} {
				b, err := tx.Read(ctx, cell)
				if err != nil {
					return err
				}
				bal, _ := txntest.DecodeAccount(b)
				if err := tx.Write(cell, txntest.EncodeAccount(bal, txntest.Stamp(0, i))); err != nil {
					return err
				}
			}
			return nil
		})
		return cli.VNow().Sub(start), err
	})
	if err != nil {
		return 0, 0, err
	}
	// Swap the end-to-end mean for the commit-rounds-only mean: the
	// histogram saw exactly the commits of the loop above.
	if n := hist.Count() - n0; n > 0 {
		commit = time.Duration((hist.Sum() - sum0) / float64(n))
	}

	// The raw pair writes the same two stripes of a fresh region with the
	// same geometry — identical locality, no transactional envelope.
	size := uint64(opts.Cells) * uint64(opts.CellSize)
	if _, err := setupCli.Alloc(ctx, "e10raw", size, client.AllocOptions{StripeUnit: opts.StripeUnit}); err != nil {
		return 0, 0, err
	}
	reg, err := cli.Map(ctx, "e10raw")
	if err != nil {
		return 0, 0, err
	}
	rawA, rawB := e10RemoteCells(reg.Info(), local, opts)
	buf, err := cli.AllocBuf(e10CellSize)
	if err != nil {
		return 0, 0, err
	}
	pair, err = meanLatency(20, func() (time.Duration, error) {
		start := cli.VNow()
		if _, err := reg.WriteAt(ctx, uint64(rawA)*e10CellSize, buf, 0, e10CellSize); err != nil {
			return 0, err
		}
		if _, err := reg.WriteAt(ctx, uint64(rawB)*e10CellSize, buf, 0, e10CellSize); err != nil {
			return 0, err
		}
		return cli.VNow().Sub(start), nil
	})
	if err != nil {
		return 0, 0, err
	}
	if pair <= 0 {
		return 0, 0, fmt.Errorf("degenerate write-pair measurement")
	}
	return commit, pair, nil
}

// extentServer resolves which server owns the stripe unit containing off.
func extentServer(info *proto.RegionInfo, off uint64) simnet.NodeID {
	unit := off / info.StripeUnit
	return info.Extents[unit%uint64(len(info.Extents))].Server
}

// e10RemoteCells picks two cells on servers other than local — on two
// distinct remote servers when the layout has them — so the measured
// data-path rounds pay full wire cost.
func e10RemoteCells(info *proto.RegionInfo, local simnet.NodeID, opts txn.Options) (int, int) {
	perUnit := int(opts.StripeUnit) / opts.CellSize
	units := opts.Cells / perUnit
	remote := make([]int, 0, units)
	for u := 0; u < units; u++ {
		if extentServer(info, uint64(u)*opts.StripeUnit) != local {
			remote = append(remote, u)
		}
	}
	switch len(remote) {
	case 0:
		return 0, 1 // single-server layout: locality is equal everywhere
	case 1:
		return remote[0] * perUnit, remote[0]*perUnit + 1
	}
	a := remote[0]
	for _, u := range remote[1:] {
		if extentServer(info, uint64(u)*opts.StripeUnit) != extentServer(info, uint64(a)*opts.StripeUnit) {
			return a * perUnit, u * perUnit
		}
	}
	return remote[0] * perUnit, remote[1] * perUnit
}

func e10Options() txn.Options {
	return txn.Options{
		Cells:            e10Accounts,
		CellSize:         e10CellSize,
		StaleLockTimeout: 500 * time.Microsecond,
		Retry: client.RetryPolicy{
			MaxAttempts: 64,
			BaseDelay:   2 * time.Microsecond,
			MaxDelay:    64 * time.Microsecond,
			Multiplier:  2,
			Jitter:      0.2,
			Seed:        20150701,
		},
	}
}

// e10BaseOptions spreads the baseline space across servers: a 4 KiB
// stripe unit (the smallest the log slot admits) gives the data region
// one stripe per 64 cells and the log one slot per stripe, which is what
// lets the baseline steer record locality per owner.
func e10BaseOptions() txn.Options {
	o := e10Options()
	o.Cells = 256
	o.StripeUnit = 4096
	o.LogSlotSize = 4096
	return o
}
