// Package txn builds optimistic multi-key transactions from RStore's
// one-sided verbs — reads, writes, and RDMA atomics — with no server-side
// transaction code at all, the composition PAPERS.md's Storm argues
// one-sided remote data structures need.
//
// A Space interprets a region as an array of fixed-size cells, each
// headed by an 8-byte version/lock word (see word.go), plus a companion
// log region holding one redo-record slot per owner. A transaction reads
// cells optimistically (capturing versions), buffers writes locally, and
// commits in four one-sided rounds:
//
//  1. record — the write set (cells, expected versions, new bytes) and a
//     PENDING status land in the owner's log slot in one write;
//  2. lock   — every write-set cell's word is claimed by CMP_SWAP
//     (expected version → lock word), all CASes in flight at once;
//  3. decide — the read set is re-validated, then the status word CASes
//     PENDING→COMMITTED: the commit point;
//  4. install — every cell is published whole (new version word + body),
//     which is also the unlock.
//
// A transaction whose client dies mid-commit leaves locks behind; any
// later transaction that watches the same lock word sit still for the
// stale-lock window resolves it through the owner's log record — rolling
// the transaction forward when the status says COMMITTED and backward
// otherwise (see recover.go). Single-cell transactions skip the log
// entirely: their lock word embeds the prior version, making them
// recoverable in place at plain-seqlock cost.
package txn

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"rstore/internal/client"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// Package errors.
var (
	// ErrContended reports that a transaction kept aborting (or a read
	// kept finding its cell locked) through every retry; the operation
	// can simply be retried.
	ErrContended = errors.New("txn: retries exhausted")
	// ErrTooLarge reports a write set that does not fit the owner's log
	// record, or a body that does not fit its cell.
	ErrTooLarge = errors.New("txn: write set too large")
	// ErrBadGeometry reports inconsistent sizing options.
	ErrBadGeometry = errors.New("txn: bad geometry")
	// ErrReadOnly reports a Write inside a RunReadTx transaction.
	ErrReadOnly = errors.New("txn: write in read-only transaction")

	// errAborted is the internal retryable verdict: a lock CAS lost, a
	// read validation failed, or a breaker aborted us. RunTx retries it
	// with backoff; it never escapes.
	errAborted = errors.New("txn: aborted")
)

// Options tunes a transaction space.
type Options struct {
	// Cells is the cell count. Default 1024.
	Cells int
	// CellSize is the fixed cell size including its 8-byte word; a
	// multiple of 8, at least 16. Default 64.
	CellSize int
	// StripeUnit for both backing regions; must be a multiple of CellSize
	// and LogSlotSize so no word ever straddles servers. Default 64 KiB.
	StripeUnit uint64
	// Owners is the number of log slots (the maximum number of
	// concurrently open handles). Default 64, maximum 256.
	Owners int
	// Owner pins the handle to log slot Owner-1; 0 auto-claims the next
	// free slot via FETCH_ADD on the claim header. Handles opened beyond
	// Owners wrap around and collide — auto-claim more handles than
	// Owners at your peril.
	Owner int
	// LogSlotSize bounds one transaction's redo record. Default 4096.
	LogSlotSize int
	// MaxWriteSet caps cells written per transaction; clamped to what a
	// log record can hold. Default 16.
	MaxWriteSet int
	// Retry governs transaction retries after aborts: MaxAttempts commit
	// attempts with the policy's capped, jittered backoff between them.
	Retry client.RetryPolicy
	// ReadRetries bounds how long a validated read waits out a locked
	// cell before giving up with ErrContended. Default 64.
	ReadRetries int
	// StaleLockTimeout is the virtual-time window after which a lock word
	// observed unchanged is presumed orphaned and broken via the owner's
	// log. Owners self-abort commits that outlive half the window, the
	// lease-style discipline that keeps breaking sound. Default 500µs.
	StaleLockTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Cells <= 0 {
		o.Cells = 1024
	}
	if o.CellSize <= 0 {
		o.CellSize = 64
	}
	if o.StripeUnit == 0 {
		o.StripeUnit = 64 << 10
	}
	if o.Owners <= 0 {
		o.Owners = 64
	}
	if o.LogSlotSize <= 0 {
		o.LogSlotSize = 4096
	}
	if o.MaxWriteSet <= 0 {
		o.MaxWriteSet = 16
	}
	if o.ReadRetries <= 0 {
		o.ReadRetries = 64
	}
	if o.StaleLockTimeout <= 0 {
		o.StaleLockTimeout = 500 * time.Microsecond
	}
	return o
}

func (o Options) check() error {
	if o.CellSize < 16 || o.CellSize%8 != 0 {
		return fmt.Errorf("%w: cell size %d", ErrBadGeometry, o.CellSize)
	}
	if o.StripeUnit%uint64(o.CellSize) != 0 {
		return fmt.Errorf("%w: stripe %d not a multiple of cell %d", ErrBadGeometry, o.StripeUnit, o.CellSize)
	}
	if o.StripeUnit%uint64(o.LogSlotSize) != 0 {
		return fmt.Errorf("%w: stripe %d not a multiple of log slot %d", ErrBadGeometry, o.StripeUnit, o.LogSlotSize)
	}
	if o.Owners > 256 {
		return fmt.Errorf("%w: %d owners > 256 (lock words carry 8 owner bits)", ErrBadGeometry, o.Owners)
	}
	if o.Owner < 0 || o.Owner > o.Owners {
		return fmt.Errorf("%w: owner %d outside 1..%d", ErrBadGeometry, o.Owner, o.Owners)
	}
	if recordCapacity(o.LogSlotSize, o.CellSize) < 1 {
		return fmt.Errorf("%w: log slot %d too small for one %d-byte cell entry", ErrBadGeometry, o.LogSlotSize, o.CellSize)
	}
	return nil
}

// sighting tracks one locked word so staleness is judged across distinct
// observations: a lock is presumed orphaned only after the same word is
// seen again at least StaleLockTimeout of virtual time later. Requiring
// two sightings keeps a frontier jump (a failover wait, a latency storm)
// from maturing a lock in one step.
type sighting struct {
	word   uint64
	firstV simnet.VTime
}

// txnCounters is the layer's telemetry.
type txnCounters struct {
	commits     *telemetry.Counter
	roCommits   *telemetry.Counter // validate-only commits (no log, no locks)
	aborts      *telemetry.Counter
	lockBreaks  *telemetry.Counter // stale locks this handle broke
	locksBroken *telemetry.Counter // our locks a breaker resolved for us
	commitLat   *telemetry.Histogram
}

// Space is one client's handle onto a shared transactional cell array.
// Handles are NOT safe for concurrent use — open one per worker; handles
// on different machines (each with its own log slot) share the data.
type Space struct {
	cli    *client.Client
	data   *client.Region
	log    *client.Region
	opts   Options
	owner  int    // log slot index
	incarn uint64 // claimed at Open; stale locks from prior incarnations are breakable
	seq    uint64 // transaction sequence within this incarnation

	cellBuf  *client.Buf // validated-read scratch, one cell
	wordBuf  *client.Buf // seqlock double-check scratch
	recBuf   *client.Buf // own record staging
	breakBuf *client.Buf // peer record inspection
	recovBuf *client.Buf // own-slot recovery; breakBuf may be live then
	pubBuf   *client.Buf // install staging, MaxWriteSet cells
	valBuf   *client.Buf // read-set validation words

	ctr    txnCounters
	tracer *telemetry.Tracer
	rng    *rand.Rand

	sight map[int]sighting

	// unclean is set when a commit attempt may have left locks behind
	// that abandonAttempt could not confirm released (an IO failure, or a
	// FailPoint cut). The next multi-key commit re-resolves the owner's
	// log slot before overwriting it: a slot record may only be reused
	// once its transaction's locks are resolvable without it.
	unclean bool

	// FailPoint, when set, is consulted after each commit stage; a
	// non-nil return makes the commit stop dead — no unlock, no cleanup —
	// exactly as if the client died there. Installs run sequentially
	// while armed so StageInstalled means "first cell only". Chaos and
	// fuzz harnesses use it; production code must leave it nil.
	FailPoint func(stage CommitStage) error
}

// CommitStage names the points FailPoint is consulted at.
type CommitStage int

const (
	// StageRecord: the redo record and PENDING status are published.
	StageRecord CommitStage = iota
	// StageLocked: every write-set lock is held.
	StageLocked
	// StageDecided: the status word CASed to COMMITTED.
	StageDecided
	// StageInstalled: the first cell's publish landed (remaining cells
	// are not yet installed when FailPoint is armed).
	StageInstalled
)

func (s CommitStage) String() string {
	switch s {
	case StageRecord:
		return "record"
	case StageLocked:
		return "locked"
	case StageDecided:
		return "decided"
	case StageInstalled:
		return "installed"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// logName derives the companion log region's name.
func logName(name string) string { return name + ".txnlog" }

// Create allocates the cell and log regions and opens a handle. Other
// clients use Open.
func Create(ctx context.Context, cli *client.Client, name string, opts Options) (*Space, error) {
	opts = opts.withDefaults()
	if err := opts.check(); err != nil {
		return nil, err
	}
	size := uint64(opts.Cells) * uint64(opts.CellSize)
	if _, err := cli.Alloc(ctx, name, size, client.AllocOptions{StripeUnit: opts.StripeUnit}); err != nil {
		return nil, fmt.Errorf("txn create: %w", err)
	}
	logSize := uint64(opts.Owners+1) * uint64(opts.LogSlotSize)
	if _, err := cli.Alloc(ctx, logName(name), logSize, client.AllocOptions{StripeUnit: opts.StripeUnit}); err != nil {
		return nil, fmt.Errorf("txn create log: %w", err)
	}
	return Open(ctx, cli, name, opts)
}

// Open maps an existing space, claims an owner log slot and a fresh
// incarnation, and self-recovers any transaction a prior incarnation of
// the slot left dangling.
func Open(ctx context.Context, cli *client.Client, name string, opts Options) (*Space, error) {
	opts = opts.withDefaults()
	if err := opts.check(); err != nil {
		return nil, err
	}
	data, err := cli.Map(ctx, name)
	if err != nil {
		return nil, fmt.Errorf("txn open: %w", err)
	}
	if data.Size() != uint64(opts.Cells)*uint64(opts.CellSize) {
		return nil, fmt.Errorf("%w: region %d bytes != %d cells x %d", ErrBadGeometry, data.Size(), opts.Cells, opts.CellSize)
	}
	log, err := cli.Map(ctx, logName(name))
	if err != nil {
		return nil, fmt.Errorf("txn open log: %w", err)
	}
	if log.Size() != uint64(opts.Owners+1)*uint64(opts.LogSlotSize) {
		return nil, fmt.Errorf("%w: log region %d bytes != %d slots x %d", ErrBadGeometry, log.Size(), opts.Owners+1, opts.LogSlotSize)
	}

	if opts.MaxWriteSet > recordCapacity(opts.LogSlotSize, opts.CellSize) {
		opts.MaxWriteSet = recordCapacity(opts.LogSlotSize, opts.CellSize)
	}
	tel := cli.Telemetry()
	sp := &Space{
		cli:  cli,
		data: data,
		log:  log,
		opts: opts,
		ctr: txnCounters{
			commits:     tel.Counter("txn.commits"),
			roCommits:   tel.Counter("txn.readonly_commits"),
			aborts:      tel.Counter("txn.aborts"),
			lockBreaks:  tel.Counter("txn.lock_breaks"),
			locksBroken: tel.Counter("txn.locks_broken"),
			commitLat:   tel.Histogram("txn.commit_latency"),
		},
		tracer: tel.Tracer(),
		sight:  make(map[int]sighting),
	}
	for _, b := range []struct {
		dst **client.Buf
		n   int
	}{
		{&sp.cellBuf, opts.CellSize},
		{&sp.wordBuf, 8},
		{&sp.recBuf, opts.LogSlotSize},
		{&sp.breakBuf, opts.LogSlotSize},
		{&sp.recovBuf, opts.LogSlotSize},
		{&sp.pubBuf, opts.MaxWriteSet * opts.CellSize},
		{&sp.valBuf, 8 * valChunk},
	} {
		buf, err := cli.AllocBuf(b.n)
		if err != nil {
			return nil, fmt.Errorf("txn open: %w", err)
		}
		*b.dst = buf
	}

	if opts.Owner > 0 {
		sp.owner = opts.Owner - 1
	} else {
		claimed, _, err := log.FetchAdd(ctx, 0, 1)
		if err != nil {
			return nil, fmt.Errorf("txn open: claim owner: %w", err)
		}
		sp.owner = int(claimed % uint64(opts.Owners))
	}
	prev, _, err := log.FetchAdd(ctx, sp.slotOff(sp.owner), 1)
	if err != nil {
		return nil, fmt.Errorf("txn open: claim incarnation: %w", err)
	}
	sp.incarn = prev + 1

	// Decorrelate retry jitter across handles even when they share a Seed.
	sp.rng = rand.New(rand.NewSource(opts.Retry.Seed ^ int64(sp.owner)<<16 ^ int64(sp.incarn)))

	if err := sp.recoverOwnSlot(ctx); err != nil {
		return nil, fmt.Errorf("txn open: recover slot %d: %w", sp.owner, err)
	}
	return sp, nil
}

// Close unmaps the space's regions (the regions themselves persist).
func (sp *Space) Close(ctx context.Context) error {
	err := sp.data.Unmap(ctx)
	if lerr := sp.log.Unmap(ctx); err == nil {
		err = lerr
	}
	return err
}

// Cells returns the cell count.
func (sp *Space) Cells() int { return sp.opts.Cells }

// BodySize returns the usable bytes per cell (CellSize minus the word).
func (sp *Space) BodySize() int { return sp.opts.CellSize - 8 }

// Owner returns the handle's log slot index.
func (sp *Space) Owner() int { return sp.owner }

// Generation returns the data region's layout generation as currently
// mapped. Client-side caches built over a space (the ordered index's node
// cache) compare it across operations: a bump means the repair plane moved
// extents and every cached body is suspect.
func (sp *Space) Generation() uint64 { return sp.data.Generation() }

// Incarnation returns the handle's claimed incarnation.
func (sp *Space) Incarnation() uint64 { return sp.incarn }

// VNow returns the client's virtual-time cursor (test harnesses and
// benches timestamp history events with it).
func (sp *Space) VNow() simnet.VTime { return sp.vnow() }

func (sp *Space) cellOff(cell int) uint64 {
	return uint64(cell) * uint64(sp.opts.CellSize)
}

func (sp *Space) checkCell(cell int) error {
	if cell < 0 || cell >= sp.opts.Cells {
		return fmt.Errorf("%w: cell %d outside 0..%d", ErrBadGeometry, cell, sp.opts.Cells-1)
	}
	return nil
}

// ReadCell performs one validated (seqlock-style) read: the cell is
// fetched whole, then its word re-read; a stable, unlocked pair is
// returned. Locked cells are waited out with capped backoff — and broken
// through the owner's log once the stale window matures. The returned
// body is owned by the caller.
func (sp *Space) ReadCell(ctx context.Context, cell int) (version uint64, body []byte, err error) {
	if err := sp.checkCell(cell); err != nil {
		return 0, nil, err
	}
	for retry := 0; retry < sp.opts.ReadRetries; retry++ {
		if _, err := sp.data.ReadAt(ctx, sp.cellOff(cell), sp.cellBuf, 0, sp.opts.CellSize); err != nil {
			return 0, nil, ctxErr(ctx, err)
		}
		w := le64(sp.cellBuf.Bytes())
		if !wordLocked(w) {
			if _, err := sp.data.ReadAt(ctx, sp.cellOff(cell), sp.wordBuf, 0, 8); err != nil {
				return 0, nil, ctxErr(ctx, err)
			}
			if le64(sp.wordBuf.Bytes()) == w {
				sp.clearSight(cell)
				return w, append([]byte(nil), sp.cellBuf.Bytes()[8:]...), nil
			}
		} else {
			sp.maybeBreak(ctx, cell, w)
		}
		if err := backoff(ctx, retry); err != nil {
			return 0, nil, err
		}
	}
	if ctx.Err() != nil {
		return 0, nil, ctx.Err()
	}
	return 0, nil, fmt.Errorf("%w: cell %d", ErrContended, cell)
}

// ReadCellVersion fetches only a cell's version word — one 8-byte wire
// read, no body, no seqlock re-check, no lock waiting. The word is
// returned exactly as read, lock bits included, so a caller comparing it
// against a previously captured version must treat any mismatch
// (including an in-flight lock word) as "the cell may have changed".
// Client-side caches use this to revalidate a cached body for the price
// of a word instead of re-fetching the cell.
func (sp *Space) ReadCellVersion(ctx context.Context, cell int) (uint64, error) {
	if err := sp.checkCell(cell); err != nil {
		return 0, err
	}
	if _, err := sp.data.ReadAt(ctx, sp.cellOff(cell), sp.wordBuf, 0, 8); err != nil {
		return 0, ctxErr(ctx, err)
	}
	return le64(sp.wordBuf.Bytes()), nil
}

// backoff waits before re-examining a contended cell: the first few
// retries spin (a writer's critical section is a handful of one-sided
// ops), then the wait doubles from 5µs to a 320µs cap so a descheduled
// lock holder gets CPU without the reader hammering the fabric. It
// surfaces ctx.Err() the moment the caller's context is done, so
// contended operations never grind through dead retries.
func backoff(ctx context.Context, retry int) error {
	if retry < 8 {
		return ctx.Err()
	}
	return client.Sleep(ctx, 5*time.Microsecond<<min(retry-8, 6))
}

// vnow returns the client's virtual-time cursor.
func (sp *Space) vnow() simnet.VTime { return sp.cli.VNow() }

// ctxErr surfaces the caller's cancellation as ctx.Err() instead of
// whatever wrapped IO error the aborted operation produced — callers
// cancelling mid-retry should see their own deadline, not ErrContended
// or an opaque transport error.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func put64(b []byte, v uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}
