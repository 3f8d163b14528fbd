package bench

import (
	"context"
	"fmt"
	"time"

	"rstore/internal/client"
	"rstore/internal/core"
	"rstore/internal/index"
	"rstore/internal/kvstore"
	"rstore/internal/workload"
)

// E11 workload knobs, package-level so the shape test can shrink them.
var (
	// E11Keys is how many ordered keys are loaded into each store.
	E11Keys = 512
	// E11Lookups is how many point lookups each get variant measures.
	E11Lookups = 256
	// E11Negatives is how many absent keys the miss variants probe.
	E11Negatives = 128
	// E11ScanSizes are the range lengths pitted against equivalent
	// batches of point gets.
	E11ScanSizes = []int{16, 64, 256}
)

const (
	e11ScanReps  = 8
	e11ZipfTheta = 1.2
	e11Seed      = 20150701
)

// E11Index measures the ordered index (not in the paper, which stops at
// a hash KV store): point gets on the flat hash table vs the B+tree with
// a cold client (no node cache, no blooms) and a warm one (cached inner
// nodes and bloom sidecars), under uniform and zipfian key choice;
// negative lookups with and without the bloom sidecars; and range scans
// against the N point gets they replace. Latencies are modeled
// (virtual-time) means; reads/op counts one-sided wire reads. The
// headline shape: a warm tree point get costs the same two wire reads
// as a validated hash-slot read, scans beat point-get batches from 16
// keys up, and blooms erase the wire cost of misses.
func E11Index(ctx context.Context) (*metricsTable, error) {
	tbl := newTable("E11: ordered index — point, range, skew (modeled)",
		"op", "variant", "mean-latency", "reads/op")

	cluster, err := core.Start(ctx, core.Config{
		Machines:       4,
		ServerCapacity: 64 << 20,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	load, err := e11Load(ctx, cluster)
	if err != nil {
		return nil, fmt.Errorf("e11 load: %w", err)
	}

	// Point gets: flat hash table, cold tree, warm tree.
	flatLat, flatReads, err := e11FlatGets(ctx, cluster)
	if err != nil {
		return nil, fmt.Errorf("e11 flat gets: %w", err)
	}
	tbl.AddRow("get", "flat-hash", flatLat, flatReads)

	coldLat, coldReads, err := e11TreeGets(ctx, cluster, e11TreeOptions(true, true), false, false)
	if err != nil {
		return nil, fmt.Errorf("e11 cold gets: %w", err)
	}
	tbl.AddRow("get", "btree-cold", coldLat, coldReads)

	warm, err := e11Warm(ctx, cluster)
	if err != nil {
		return nil, fmt.Errorf("e11 warm: %w", err)
	}
	tbl.AddRow("get", "btree-warm", warm.uniLat, warm.uniReads)
	tbl.AddRow("get-zipf", "btree-warm", warm.zipfLat, warm.zipfReads)

	// Negative lookups: blooms on vs off, both with warm caches.
	missNoBloomLat, missNoBloomReads, err := e11TreeGets(ctx, cluster, e11TreeOptions(false, true), true, true)
	if err != nil {
		return nil, fmt.Errorf("e11 miss nobloom: %w", err)
	}
	tbl.AddRow("get-miss", "btree-nobloom", missNoBloomLat, missNoBloomReads)
	missBloomLat, missBloomReads, err := e11TreeGets(ctx, cluster, e11TreeOptions(false, false), true, true)
	if err != nil {
		return nil, fmt.Errorf("e11 miss bloom: %w", err)
	}
	tbl.AddRow("get-miss", "btree-bloom", missBloomLat, missBloomReads)

	// Range scans vs the point-get batches they replace.
	for _, n := range E11ScanSizes {
		scan, gets, err := e11ScanVsGets(ctx, cluster, n)
		if err != nil {
			return nil, fmt.Errorf("e11 scan %d: %w", n, err)
		}
		op := fmt.Sprintf("scan-%d", n)
		tbl.AddRow(op, "btree-range", scan.lat, scan.reads)
		tbl.AddRow(op, "point-gets", gets.lat, gets.reads)
	}

	bloomCut := 0.0
	if missNoBloomReads > 0 {
		bloomCut = 100 * (1 - missBloomReads/missNoBloomReads)
	}
	tbl.Footer = fmt.Sprintf(
		"tree: height %d, %d nodes (~%d keys/node), %d splits during load; warm cache hit-rate %.0f%%; blooms cut negative-lookup reads %.0f%%",
		load.height, load.nodes, load.keysPerNode, load.splits, 100*warm.hitRate, bloomCut)
	return tbl, nil
}

// e11Point is one measured operation class.
type e11Point struct {
	lat   time.Duration
	reads float64
}

type e11LoadStats struct {
	height, nodes, keysPerNode int
	splits                     int64
}

func e11TreeOptions(noCache, noBloom bool) index.Options {
	return index.Options{
		Nodes:    512,
		NodeSize: 512,
		MaxKey:   32,
		NoCache:  noCache,
		NoBloom:  noBloom,
	}
}

func e11FlatOptions() kvstore.Options {
	return kvstore.Options{SlotSize: 128, Slots: 4096}
}

func e11Val(i int) []byte { return []byte(fmt.Sprintf("v-%08d", i)) }

func e11MissKey(i int) []byte { return []byte(fmt.Sprintf("miss%05d", i)) }

// e11Load seeds the flat table and the tree with the same ordered keys.
func e11Load(ctx context.Context, cluster *core.Cluster) (e11LoadStats, error) {
	cli, err := cluster.NewClient(ctx, cluster.MemoryServerNodes()[0])
	if err != nil {
		return e11LoadStats{}, err
	}
	flat, err := kvstore.Create(ctx, cli, "e11flat", e11FlatOptions())
	if err != nil {
		return e11LoadStats{}, err
	}
	tree, err := index.Create(ctx, cli, "e11tree", e11TreeOptions(false, false))
	if err != nil {
		return e11LoadStats{}, err
	}
	for i := 0; i < E11Keys; i++ {
		k := workload.OrderedKey(i)
		if err := flat.Put(ctx, k, e11Val(i)); err != nil {
			return e11LoadStats{}, err
		}
		if err := tree.Insert(ctx, k, e11Val(i)); err != nil {
			return e11LoadStats{}, err
		}
	}
	st, err := tree.Stats(ctx)
	if err != nil {
		return e11LoadStats{}, err
	}
	kpn := 0
	if st.Nodes > 0 {
		kpn = E11Keys / st.Nodes
	}
	return e11LoadStats{
		height:      st.Height,
		nodes:       st.Nodes,
		keysPerNode: kpn,
		splits:      cli.Telemetry().Counter("index.splits").Value(),
	}, nil
}

// e11Measure times ops calls of fn on a fresh-counter window and returns
// the modeled mean latency and one-sided reads per op.
func e11Measure(cli *client.Client, ops int, fn func(i int) error) (time.Duration, float64, error) {
	reads := cli.Telemetry().Counter("client.reads")
	r0 := reads.Value()
	start := cli.VNow()
	for i := 0; i < ops; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	lat := time.Duration(int64(cli.VNow().Sub(start)) / int64(ops))
	return lat, float64(reads.Value()-r0) / float64(ops), nil
}

func e11FlatGets(ctx context.Context, cluster *core.Cluster) (time.Duration, float64, error) {
	cli, err := cluster.NewClient(ctx, cluster.MemoryServerNodes()[0])
	if err != nil {
		return 0, 0, err
	}
	s, err := kvstore.Open(ctx, cli, "e11flat", e11FlatOptions())
	if err != nil {
		return 0, 0, err
	}
	return e11Measure(cli, E11Lookups, func(i int) error {
		_, err := s.Get(ctx, workload.OrderedKey(i*7%E11Keys))
		return err
	})
}

// e11TreeGets measures point lookups on a fresh handle with the given
// options. miss probes absent keys (and tolerates ErrNotFound); prime
// runs one untimed round first so caches and blooms are warm.
func e11TreeGets(ctx context.Context, cluster *core.Cluster, opts index.Options, miss, prime bool) (time.Duration, float64, error) {
	cli, err := cluster.NewClient(ctx, cluster.MemoryServerNodes()[0])
	if err != nil {
		return 0, 0, err
	}
	tree, err := index.Open(ctx, cli, "e11tree", opts)
	if err != nil {
		return 0, 0, err
	}
	n := E11Lookups
	if miss {
		n = E11Negatives
	}
	probe := func(i int) error {
		var key []byte
		if miss {
			key = e11MissKey(i % E11Negatives)
		} else {
			key = workload.OrderedKey(i * 7 % E11Keys)
		}
		_, err := tree.Get(ctx, key)
		if miss && err == index.ErrNotFound {
			return nil
		}
		return err
	}
	if prime {
		for i := 0; i < n; i++ {
			if err := probe(i); err != nil {
				return 0, 0, err
			}
		}
	}
	return e11Measure(cli, n, probe)
}

type e11WarmResult struct {
	uniLat    time.Duration
	uniReads  float64
	zipfLat   time.Duration
	zipfReads float64
	hitRate   float64
}

// e11Warm measures uniform and zipfian point gets on one warmed handle:
// a full prime pass caches every inner node and leaf bloom first.
func e11Warm(ctx context.Context, cluster *core.Cluster) (e11WarmResult, error) {
	var res e11WarmResult
	cli, err := cluster.NewClient(ctx, cluster.MemoryServerNodes()[0])
	if err != nil {
		return res, err
	}
	tree, err := index.Open(ctx, cli, "e11tree", e11TreeOptions(false, false))
	if err != nil {
		return res, err
	}
	for i := 0; i < E11Keys; i++ {
		if _, err := tree.Get(ctx, workload.OrderedKey(i)); err != nil {
			return res, err
		}
	}

	tel := cli.Telemetry()
	hits0 := tel.Counter("index.cache_hits").Value()
	misses0 := tel.Counter("index.cache_misses").Value()

	res.uniLat, res.uniReads, err = e11Measure(cli, E11Lookups, func(i int) error {
		_, err := tree.Get(ctx, workload.OrderedKey(i*7%E11Keys))
		return err
	})
	if err != nil {
		return res, err
	}

	// Zipfian key choice over the same key space, as e10 draws accounts.
	const span = 64
	pattern, err := workload.NewZipfian(uint64(E11Keys)*span, span, e11ZipfTheta, e11Seed)
	if err != nil {
		return res, err
	}
	res.zipfLat, res.zipfReads, err = e11Measure(cli, E11Lookups, func(i int) error {
		_, err := tree.Get(ctx, workload.OrderedKey(int(pattern.Next()/span)))
		return err
	})
	if err != nil {
		return res, err
	}

	hits := tel.Counter("index.cache_hits").Value() - hits0
	misses := tel.Counter("index.cache_misses").Value() - misses0
	if hits+misses > 0 {
		res.hitRate = float64(hits) / float64(hits+misses)
	}
	return res, nil
}

// e11ScanVsGets pits one n-key range scan against the n point gets it
// replaces, both on warm handles.
func e11ScanVsGets(ctx context.Context, cluster *core.Cluster, n int) (scan, gets e11Point, err error) {
	if n > E11Keys {
		return scan, gets, fmt.Errorf("scan size %d exceeds key count %d", n, E11Keys)
	}
	cli, err := cluster.NewClient(ctx, cluster.MemoryServerNodes()[0])
	if err != nil {
		return scan, gets, err
	}
	tree, err := index.Open(ctx, cli, "e11tree", e11TreeOptions(false, false))
	if err != nil {
		return scan, gets, err
	}
	// Warm the route cache over the scanned range.
	start, end := workload.OrderedKey(0), workload.OrderedKey(n)
	if _, err := tree.Scan(ctx, start, end); err != nil {
		return scan, gets, err
	}
	scan.lat, scan.reads, err = e11Measure(cli, e11ScanReps, func(int) error {
		ents, err := tree.Scan(ctx, start, end)
		if err != nil {
			return err
		}
		if len(ents) != n {
			return fmt.Errorf("scan returned %d of %d keys", len(ents), n)
		}
		return nil
	})
	if err != nil {
		return scan, gets, err
	}
	gets.lat, gets.reads, err = e11Measure(cli, e11ScanReps, func(int) error {
		for i := 0; i < n; i++ {
			if _, err := tree.Get(ctx, workload.OrderedKey(i)); err != nil {
				return err
			}
		}
		return nil
	})
	return scan, gets, err
}
