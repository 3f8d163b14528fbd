package bench

import (
	"context"
	"testing"
	"time"
)

// parse helpers for rendered table cells.

// value reads back the number an experiment handed to AddRow for the cell —
// the typed value, not the rendered text.
func value(t *testing.T, tbl *metricsTable, row, col int) float64 {
	t.Helper()
	v, _, ok := tbl.Value(row, col)
	if !ok {
		t.Fatalf("cell [%d][%d] %q is not a number", row, col, tbl.Rows()[row][col])
	}
	return v
}

// duration is value for a time-valued cell.
func duration(t *testing.T, tbl *metricsTable, row, col int) time.Duration {
	t.Helper()
	v, unit, ok := tbl.Value(row, col)
	if !ok || unit != "ns" {
		t.Fatalf("cell [%d][%d] %q is not a duration", row, col, tbl.Rows()[row][col])
	}
	return time.Duration(v)
}

func TestE1LatencyShape(t *testing.T) {
	tbl, err := E1Latency(context.Background())
	if err != nil {
		t.Fatalf("E1Latency: %v", err)
	}
	t.Log("\n" + tbl.String())
	rows := tbl.Rows()
	if len(rows) != len(E1Sizes) {
		t.Fatalf("rows = %d", len(rows))
	}
	for r, row := range rows {
		raw := duration(t, tbl, r, 1)
		rstore := duration(t, tbl, r, 2)
		tcp := duration(t, tbl, r, 4)
		// Close to hardware: RStore within 2x of raw verbs.
		if float64(rstore) > 2*float64(raw) {
			t.Errorf("size %s: rstore %v not close to raw %v", row[0], rstore, raw)
		}
		// Far below the two-sided store for small transfers.
		if row[0] == "8B" && tcp < 5*rstore {
			t.Errorf("8B: two-sided %v should dwarf rstore %v", tcp, rstore)
		}
	}
	// Small op stays in the close-to-hardware class (single digit us).
	if small := duration(t, tbl, 0, 2); small > 10*time.Microsecond {
		t.Errorf("8B read latency %v too high", small)
	}
}

func TestE2BandwidthShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl, err := E2Bandwidth(context.Background())
	if err != nil {
		t.Fatalf("E2Bandwidth: %v", err)
	}
	t.Log("\n" + tbl.String())
	rows := tbl.Rows()
	// Aggregate bandwidth grows with machine count. (The smallest
	// clusters see extra per-machine bandwidth from co-located locality —
	// half of a 2-machine stripe is loopback — so compare from 4 up.)
	fourUp := value(t, tbl, 1, 2)
	last := value(t, tbl, len(rows)-1, 2)
	if last < 2*fourUp {
		t.Errorf("aggregate bandwidth did not scale: %v@4 -> %v@12 Gb/s", fourUp, last)
	}
	// The 12-machine row lands in the paper's several-hundred-Gb/s class
	// with healthy per-link efficiency.
	if last < 400 || last > 900 {
		t.Errorf("12-machine aggregate = %.0f Gb/s, want the ~700 Gb/s class", last)
	}
	if perMachine := value(t, tbl, len(rows)-1, 3); perMachine < 35 {
		t.Errorf("per-machine bandwidth = %.1f Gb/s, want >= 35 (56 Gb/s links)", perMachine)
	}
}

func TestE3ControlShape(t *testing.T) {
	tbl, err := E3ControlPath(context.Background())
	if err != nil {
		t.Fatalf("E3ControlPath: %v", err)
	}
	t.Log("\n" + tbl.String())
	rows := tbl.Rows()
	// Data path flat: 8B read latency identical (within 50%) across region
	// sizes while register cost grows by orders of magnitude.
	firstRead := duration(t, tbl, 0, 5)
	lastRead := duration(t, tbl, len(rows)-1, 5)
	if ratio := float64(lastRead) / float64(firstRead); ratio > 1.5 || ratio < 0.67 {
		t.Errorf("data path not flat: %v vs %v", firstRead, lastRead)
	}
	firstRegister := duration(t, tbl, 0, 4)
	lastRegister := duration(t, tbl, len(rows)-1, 4)
	if lastRegister < 10*firstRegister {
		t.Errorf("register cost did not grow with size: %v vs %v", firstRegister, lastRegister)
	}
	// Warm map far cheaper than cold map (QP reuse).
	coldMap := duration(t, tbl, 0, 2)
	warmMap := duration(t, tbl, 0, 3)
	if warmMap*2 > coldMap {
		t.Errorf("warm map %v not amortized vs cold %v", warmMap, coldMap)
	}
}

func TestE4PageRankShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// One smaller case to keep test time in check; the full sweep runs in
	// the root benches.
	cases := []E4Graph{{Name: "rmat-16k", Vertices: 16 << 10, Edges: 160 << 10, Kind: "rmat", Machines: 8}}
	tbl, err := E4PageRank(context.Background(), cases)
	if err != nil {
		t.Fatalf("E4PageRank: %v", err)
	}
	t.Log("\n" + tbl.String())
	speedup := value(t, tbl, 0, 5)
	if speedup < 1.5 || speedup > 8 {
		t.Errorf("speedup = %.2f, want the paper's 2.6-4.2x class", speedup)
	}
}

func TestE5SortShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl, err := E5Sort(context.Background(), []int{500_000, 2_000_000})
	if err != nil {
		t.Fatalf("E5Sort: %v", err)
	}
	t.Log("\n" + tbl.String())
	rows := tbl.Rows()
	// Extrapolated 256 GB row: RStore in the tens of seconds, speedup in
	// the ~8x class.
	last := len(rows) - 1
	rstore := duration(t, tbl, last, 2)
	speedup := value(t, tbl, last, 4)
	if rstore < 10*time.Second || rstore > 120*time.Second {
		t.Errorf("256GB extrapolation = %v, want the ~31.7s class", rstore)
	}
	if speedup < 4 || speedup > 16 {
		t.Errorf("speedup = %.1f, want the ~8x class", speedup)
	}
}

func TestE6NotifyShape(t *testing.T) {
	tbl, err := E6Notify(context.Background())
	if err != nil {
		t.Fatalf("E6Notify: %v", err)
	}
	t.Log("\n" + tbl.String())
	total := duration(t, tbl, 0, 3)
	if total <= 0 || total > 100*time.Microsecond {
		t.Errorf("notify e2e = %v, want a few microseconds", total)
	}
}

func TestE7MultiClientShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl, err := E7MultiClient(context.Background())
	if err != nil {
		t.Fatalf("E7MultiClient: %v", err)
	}
	t.Log("\n" + tbl.String())
	rows := tbl.Rows()
	first := value(t, tbl, 0, 1)
	last := value(t, tbl, len(rows)-1, 1)
	if last < 4*first {
		t.Errorf("throughput did not scale with clients: %v -> %v Mops/s", first, last)
	}
}

func TestE8RepairShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// One small size keeps the real-time cost down; the full sweep runs
	// under `rstore-bench -exp e8`.
	orig := E8Sizes
	E8Sizes = []uint64{2 << 20}
	defer func() { E8Sizes = orig }()
	tbl, err := E8RepairMTTR(context.Background())
	if err != nil {
		t.Fatalf("E8RepairMTTR: %v", err)
	}
	t.Log("\n" + tbl.String())
	rows := tbl.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if mib := value(t, tbl, 0, 1); mib < 2 {
		t.Errorf("repair-mib = %v, want >= 2 (the replica re-replicated)", mib)
	}
	if tbl.Footer == "" {
		t.Error("no slowest-op breakdown footer; flight recorder pinned nothing")
	}
}

func TestA1StripeShape(t *testing.T) {
	tbl, err := A1Stripe(context.Background())
	if err != nil {
		t.Fatalf("A1Stripe: %v", err)
	}
	t.Log("\n" + tbl.String())
	rows := tbl.Rows()
	narrow := value(t, tbl, 0, 1)
	wide := value(t, tbl, len(rows)-1, 1)
	// Width-1 is capped by a single server link (~56 Gb/s); width-8
	// should multiply aggregate bandwidth severalfold.
	if narrow > 70 {
		t.Errorf("width-1 aggregate %.1f Gb/s exceeds one server link", narrow)
	}
	if wide < 2.5*narrow {
		t.Errorf("striping did not scale: width-1 %.1f vs width-8 %.1f Gb/s", narrow, wide)
	}
}

func TestA2ReplicationShape(t *testing.T) {
	tbl, err := A2Replication(context.Background())
	if err != nil {
		t.Fatalf("A2Replication: %v", err)
	}
	t.Log("\n" + tbl.String())
	r0 := duration(t, tbl, 0, 1)
	r2 := duration(t, tbl, 2, 1)
	if r2 <= r0 {
		t.Errorf("replication should cost: r0=%v r2=%v", r0, r2)
	}
}

func TestA4KVStoreShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl, err := A4KVStore(context.Background())
	if err != nil {
		t.Fatalf("A4KVStore: %v", err)
	}
	t.Log("\n" + tbl.String())
	rows := tbl.Rows()
	// Read-only should not lose badly to the write-heavy mix, and per-op
	// latency stays in the close-to-hardware class (small multiple of a
	// one-sided read). Throughput between mixes is noisy on a loaded box
	// (workers claim virtual-time slots in real execution order), so the
	// shape check allows the documented run-to-run variance.
	readOnly := value(t, tbl, 0, 1)
	mixed := value(t, tbl, len(rows)-1, 1)
	if readOnly < 0.75*mixed {
		t.Errorf("read-only %.1f kops/s far slower than 50/50 %.1f", readOnly, mixed)
	}
	if p50 := value(t, tbl, 0, 2); p50 <= 0 || p50 > 50 {
		t.Errorf("get p50 = %.2f us, want close-to-hardware", p50)
	}
}

func TestA3QPSharingShape(t *testing.T) {
	tbl, err := A3QPSharing(context.Background())
	if err != nil {
		t.Fatalf("A3QPSharing: %v", err)
	}
	t.Log("\n" + tbl.String())
	firstConnects := value(t, tbl, 0, 2)
	laterConnects := value(t, tbl, 1, 2)
	if firstConnects == 0 {
		t.Error("first map should establish connections")
	}
	if laterConnects != 0 {
		t.Errorf("later maps should reuse QPs, got %v connects", laterConnects)
	}
}

func TestE10TxnShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Two corners of the sweep keep the real-time cost down; the full
	// grid runs under `rstore-bench -exp e10`.
	origW, origS := E10Workers, E10Skews
	E10Workers = []int{1, 8}
	E10Skews = E10Skews[:1:1]
	E10Skews = append(E10Skews, origS[len(origS)-1])
	defer func() { E10Workers, E10Skews = origW, origS }()

	tbl, err := E10TxnContention(context.Background())
	if err != nil {
		t.Fatalf("E10TxnContention: %v", err)
	}
	t.Log("\n" + tbl.String())
	rows := tbl.Rows()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	rate := func(row int) float64 { return value(t, tbl, row, 4) }
	for r, row := range rows {
		if value(t, tbl, r, 2) < 1 {
			t.Errorf("row %v: nothing committed", row)
		}
	}
	// Contention must show: the skewed many-worker corner aborts more
	// than the single uncontended worker.
	if lo, hi := rate(0), rate(len(rows)-1); hi <= lo {
		t.Errorf("abort rate flat under contention: uncontended %.1f%% vs contended %.1f%%", lo, hi)
	}
	// The design's promise: the transactional envelope costs at most 2x
	// the raw one-sided write pair it replaces.
	commit, pair, err := e10Baseline(context.Background())
	if err != nil {
		t.Fatalf("e10Baseline: %v", err)
	}
	if ratio := float64(commit) / float64(pair); ratio > 2.0 {
		t.Errorf("uncontended commit %v = %.2fx write pair %v, want <= 2x", commit, ratio, pair)
	}
}

func TestE11IndexShape(t *testing.T) {
	// A shrunken corner of the sweep; the full table runs under
	// `rstore-bench -exp e11`.
	origK, origL, origN, origS := E11Keys, E11Lookups, E11Negatives, E11ScanSizes
	E11Keys, E11Lookups, E11Negatives = 256, 96, 64
	E11ScanSizes = []int{16, 64}
	defer func() { E11Keys, E11Lookups, E11Negatives, E11ScanSizes = origK, origL, origN, origS }()

	tbl, err := E11Index(context.Background())
	if err != nil {
		t.Fatalf("E11Index: %v", err)
	}
	t.Log("\n" + tbl.String())
	rows := tbl.Rows()
	if len(rows) != 6+2*len(E11ScanSizes) {
		t.Fatalf("rows = %d, want %d", len(rows), 6+2*len(E11ScanSizes))
	}
	flatLat, flatReads := duration(t, tbl, 0, 2), value(t, tbl, 0, 3)
	coldReads := value(t, tbl, 1, 3)
	warmLat, warmReads := duration(t, tbl, 2, 2), value(t, tbl, 2, 3)
	zipfReads := value(t, tbl, 3, 3)
	missPlainReads := value(t, tbl, 4, 3)
	missBloomReads := value(t, tbl, 5, 3)

	// (a) A warm client's point get routes through its cache: at most
	// the two wire reads of one validated leaf read, and within 1.5x the
	// flat hash table's validated slot read.
	if warmReads > 2.2 {
		t.Errorf("warm get costs %.2f reads/op, want <= 2.2", warmReads)
	}
	if zipfReads > 2.2 {
		t.Errorf("warm zipf get costs %.2f reads/op, want <= 2.2", zipfReads)
	}
	if float64(warmLat) > 1.5*float64(flatLat) {
		t.Errorf("warm get %v vs flat-hash %v, want <= 1.5x", warmLat, flatLat)
	}
	if coldReads <= warmReads {
		t.Errorf("cold get %.2f reads/op not above warm %.2f: cache buys nothing", coldReads, warmReads)
	}
	if flatReads <= 0 {
		t.Errorf("flat get read nothing (%.2f reads/op)", flatReads)
	}

	// (c) Bloom sidecars cut negative-lookup wire reads by at least half.
	if missBloomReads > 0.5*missPlainReads {
		t.Errorf("bloom miss %.2f reads/op vs nobloom %.2f, want <= 50%%", missBloomReads, missPlainReads)
	}

	// (b) A range scan of n keys beats the n point gets it replaces,
	// from the smallest swept size up, on both latency and wire reads.
	for i, n := range E11ScanSizes {
		scanRow, getsRow := 6+2*i, 7+2*i
		scanLat, scanReads := duration(t, tbl, scanRow, 2), value(t, tbl, scanRow, 3)
		getsLat, getsReads := duration(t, tbl, getsRow, 2), value(t, tbl, getsRow, 3)
		if scanLat >= getsLat {
			t.Errorf("scan-%d %v not below %d point gets %v", n, scanLat, n, getsLat)
		}
		if scanReads >= getsReads {
			t.Errorf("scan-%d %.2f reads not below point gets %.2f", n, scanReads, getsReads)
		}
	}
}
