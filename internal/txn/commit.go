package txn

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"rstore/internal/client"
	"rstore/internal/simnet"
)

// valChunk bounds how many read-set validation reads fly at once (and
// sizes the validation buffer).
const valChunk = 32

// Tx is one transaction attempt: reads are validated and their versions
// captured, writes are buffered locally until commit. A Tx is only valid
// inside the RunTx callback that created it.
type Tx struct {
	sp       *Space
	gen      uint64
	genSet   bool
	readOnly bool           // opened by RunReadTx: Write is rejected
	reads    map[int]uint64 // cell -> version captured at first read
	cache    map[int][]byte // cell -> body snapshot backing repeat reads
	writes   map[int][]byte // cell -> buffered new body
}

// noteGen pins the region generation the transaction runs against; a
// repair-plane layout change mid-transaction shows up as a mismatch at
// validation and aborts the attempt.
func (tx *Tx) noteGen() {
	if !tx.genSet {
		tx.gen = tx.sp.data.Info().Generation
		tx.genSet = true
	}
}

// Read returns the cell's body as of the transaction's snapshot. The
// first read of a cell captures its version for commit-time validation;
// repeat reads (and reads of cells this transaction wrote) are served
// from the local cache so the attempt always sees its own writes and a
// stable snapshot. The returned slice is owned by the caller.
func (tx *Tx) Read(ctx context.Context, cell int) ([]byte, error) {
	_, body, err := tx.ReadVersioned(ctx, cell)
	return body, err
}

// ReadVersioned is Read plus the cell's version word as of the snapshot
// (0 = never written). Callers that must distinguish an absent cell from
// a written-empty one — e.g. a hash table telling "end of probe chain"
// from a tombstone — need the version. For cells this transaction wrote
// blind (never read), the reported version is 0.
func (tx *Tx) ReadVersioned(ctx context.Context, cell int) (uint64, []byte, error) {
	if body, ok := tx.writes[cell]; ok {
		return tx.reads[cell], append([]byte(nil), body...), nil
	}
	if body, ok := tx.cache[cell]; ok {
		return tx.reads[cell], append([]byte(nil), body...), nil
	}
	tx.noteGen()
	version, body, err := tx.sp.ReadCell(ctx, cell)
	if err != nil {
		return 0, nil, err
	}
	tx.reads[cell] = version
	tx.cache[cell] = body
	return version, append([]byte(nil), body...), nil
}

// Write buffers body as the cell's new contents. Bytes past body up to
// the cell's capacity are zeroed on install.
func (tx *Tx) Write(cell int, body []byte) error {
	if tx.readOnly {
		return ErrReadOnly
	}
	if err := tx.sp.checkCell(cell); err != nil {
		return err
	}
	if len(body) > tx.sp.BodySize() {
		return fmt.Errorf("%w: body %d > cell capacity %d", ErrTooLarge, len(body), tx.sp.BodySize())
	}
	if _, ok := tx.writes[cell]; !ok && len(tx.writes) >= tx.sp.opts.MaxWriteSet {
		return fmt.Errorf("%w: write set > %d cells", ErrTooLarge, tx.sp.opts.MaxWriteSet)
	}
	tx.writes[cell] = append([]byte(nil), body...)
	return nil
}

// RunTx runs fn as an optimistic transaction, retrying aborted attempts
// (lock conflicts, validation failures, broken locks) with the space's
// jittered backoff policy. fn may be invoked many times and must not keep
// side effects across attempts. A read-only fn commits without touching
// any lock. Context cancellation surfaces as ctx.Err(); exhausting every
// attempt surfaces ErrContended.
func (sp *Space) RunTx(ctx context.Context, fn func(tx *Tx) error) error {
	return sp.runTx(ctx, fn, false)
}

// RunReadTx runs fn as a read-only transaction: the commit is a pure
// validation round — the read-set words are re-read and compared — with no
// log-slot write and no lock CAS anywhere on the path (ROADMAP's
// "validate-only, no log slot" fast path). A successful return means every
// value fn read was part of one consistent snapshot. tx.Write inside fn
// fails with ErrReadOnly. Index traversals and multi-cell reads ride this;
// it costs one extra 8-byte read per read-set cell over raw ReadCells and
// buys a serializable multi-cell view.
func (sp *Space) RunReadTx(ctx context.Context, fn func(tx *Tx) error) error {
	return sp.runTx(ctx, fn, true)
}

func (sp *Space) runTx(ctx context.Context, fn func(tx *Tx) error, readOnly bool) error {
	attempts := sp.opts.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := sp.retrySleep(ctx, attempt-1); err != nil {
				return err
			}
		}
		tx := &Tx{
			sp:       sp,
			readOnly: readOnly,
			reads:    make(map[int]uint64),
			cache:    make(map[int][]byte),
			writes:   make(map[int][]byte),
		}
		if err := fn(tx); err != nil {
			if errors.Is(err, errAborted) {
				sp.ctr.aborts.Inc()
				continue
			}
			return ctxErr(ctx, err)
		}
		err := sp.commit(ctx, tx)
		if err == nil {
			return nil
		}
		if !errors.Is(err, errAborted) {
			return err
		}
		sp.ctr.aborts.Inc()
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("%w: %d attempts", ErrContended, attempts)
}

// retrySleep waits the policy's jittered backoff before retry `attempt`,
// bailing out the moment the caller's context is done.
func (sp *Space) retrySleep(ctx context.Context, attempt int) error {
	return client.Sleep(ctx, sp.opts.Retry.Jittered(attempt, sp.rng.Float64()))
}

// commit drives one attempt through the four-round protocol (or the
// single-cell fast path). Every return of errAborted leaves no lock of
// ours behind — unless FailPoint cut the attempt short, which is the
// point of FailPoint.
func (sp *Space) commit(ctx context.Context, tx *Tx) error {
	ct, ctx := sp.startCommitTrace(ctx)
	startV := sp.vnow()
	err := sp.commitInner(ctx, tx, ct, startV)
	ct.finish(err)
	if err == nil {
		sp.ctr.commits.Inc()
		// Counts RunReadTx commits only: a RunTx that happened to buffer
		// no writes also commits validate-only, but counting it here
		// would overstate how often callers ride the declared fast path.
		if tx.readOnly {
			sp.ctr.roCommits.Inc()
		}
		sp.ctr.commitLat.Record(sp.vnow().Sub(startV))
	} else if !errors.Is(err, errAborted) {
		// An abort cleaned up after itself (abandonAttempt flags its own
		// failures); anything else — an install that half-landed, a cut —
		// may have left locks only our slot record can resolve.
		sp.unclean = true
	}
	return err
}

func (sp *Space) commitInner(ctx context.Context, tx *Tx, ct commitTrace, startV simnet.VTime) error {
	if len(tx.writes) == 0 {
		// Read-only: re-validating the read set is the whole commit.
		return ct.phase(ctx, "txn.validate", func(ctx context.Context) error {
			return sp.validateReads(ctx, tx, nil)
		})
	}

	// Capture the expected (unlocked) word for every write-set cell. Cells
	// the transaction read use the captured version — the lock CAS then
	// doubles as their validation. Blind writes fetch a fresh word, waiting
	// out (and eventually breaking) locks; this is also the one place the
	// commit path breaks matured stale locks, before our own record is
	// staged.
	cells := make([]int, 0, len(tx.writes))
	for c := range tx.writes {
		cells = append(cells, c)
	}
	sort.Ints(cells)
	entries := make([]entry, len(cells))
	for i, c := range cells {
		expect, ok := tx.reads[c]
		if !ok {
			tx.noteGen()
			w, err := sp.fetchUnlockedWord(ctx, c)
			if err != nil {
				return err
			}
			expect = w
		}
		entries[i] = entry{cell: c, expect: expect, body: tx.writes[c]}
	}

	if len(entries) == 1 && len(tx.reads) <= 1 {
		if _, onlyWrite := tx.reads[entries[0].cell]; len(tx.reads) == 0 || onlyWrite {
			return sp.commitSingle(ctx, ct, entries[0], startV)
		}
	}

	if sp.unclean {
		// A previous attempt may have left locks that only our current slot
		// record can resolve (breakers punt on a record that has moved on to
		// a later transaction). Resolve the slot before overwriting it.
		if err := sp.recoverOwnSlot(ctx); err != nil {
			return ctxErr(ctx, err)
		}
		sp.unclean = false
	}

	sp.seq++
	seq := sp.seq
	lock := lockWord(sp.owner, sp.incarn, seq)
	pending := statusWord(statePending, sp.incarn, seq)

	// Round 1 — record. Status and redo body land in one write (one
	// fragment: the slot never straddles a stripe), so any peer that can
	// see the PENDING status can see the whole record behind it.
	err := ct.phase(ctx, "txn.log", func(ctx context.Context) error {
		n := encodeRecord(sp.recBuf.Bytes(), pending, entries)
		_, werr := sp.log.WriteAt(ctx, sp.slotOff(sp.owner)+logStatusOff, sp.recBuf, 0, n)
		return werr
	})
	if err != nil {
		return err
	}
	if err := sp.failpoint(StageRecord); err != nil {
		return err
	}

	// Round 2 — lock. All CASes in flight at once; each validates its
	// cell's version as it claims it. The lease clock starts here: the
	// stale-window discipline bounds how long locks are *held*, and the
	// pre-lock rounds (blind-write word fetches, the log record) can cost
	// several fabric round trips on a remote client without making any
	// lock observable.
	startV = sp.vnow()
	var locked []entry
	err = ct.phase(ctx, "txn.lock", func(ctx context.Context) error {
		var lerr error
		pendings := make([]*client.AtomicPending, len(entries))
		for i, e := range entries {
			p, perr := sp.data.StartCompareSwap(ctx, sp.cellOff(e.cell), e.expect, lock)
			if perr != nil {
				lerr = perr
				break
			}
			pendings[i] = p
		}
		conflict := false
		for i, p := range pendings {
			if p == nil {
				continue
			}
			old, _, werr := p.Wait(ctx)
			if werr != nil {
				if lerr == nil {
					lerr = werr
				}
				continue
			}
			if old == entries[i].expect {
				locked = append(locked, entries[i])
			} else {
				conflict = true
				if wordLocked(old) {
					sp.noteSight(entries[i].cell, old)
				}
			}
		}
		if lerr != nil {
			return lerr
		}
		if conflict {
			return errAborted
		}
		return nil
	})
	if err != nil {
		sp.abandonAttempt(ctx, pending, locked)
		return err
	}
	if err := sp.failpoint(StageLocked); err != nil {
		return err
	}

	// Round 3 — validate and decide. The read-only read set is re-checked,
	// then the status word CASes PENDING→COMMITTED: the commit point,
	// arbitrated against breakers that abort stale transactions through the
	// same word. Holding locks past half the stale window forfeits the
	// attempt — the lease-style discipline that makes lock breaking sound.
	err = ct.phase(ctx, "txn.validate", func(ctx context.Context) error {
		if verr := sp.validateReads(ctx, tx, tx.writes); verr != nil {
			return verr
		}
		if sp.vnow().Sub(startV) > sp.opts.StaleLockTimeout/2 {
			return errAborted
		}
		committed := statusWord(stateCommitted, sp.incarn, seq)
		old, _, cerr := sp.log.CompareSwap(ctx, sp.slotOff(sp.owner)+logStatusOff, pending, committed)
		if cerr != nil {
			return cerr
		}
		if old != pending {
			// A breaker rolled us back while we dithered.
			sp.ctr.locksBroken.Inc()
			return errAborted
		}
		return nil
	})
	if err != nil {
		sp.abandonAttempt(ctx, pending, locked)
		return err
	}
	if err := sp.failpoint(StageDecided); err != nil {
		return err
	}

	// Round 4 — install. Publishing the whole cell (fresh version word +
	// body) is also the unlock; cell-sized writes are single fragments, so
	// each publish is atomic in flight. Past the commit point nothing can
	// abort us: failures here leave locks for breakers to roll forward.
	return ct.phase(ctx, "txn.install", func(ctx context.Context) error {
		if sp.FailPoint != nil {
			// Sequential installs so StageInstalled means exactly "the first
			// cell landed, the rest did not".
			for i, e := range entries {
				if _, werr := sp.publishCell(ctx, e, i); werr != nil {
					return werr
				}
				if i == 0 {
					if ferr := sp.failpoint(StageInstalled); ferr != nil {
						return ferr
					}
				}
			}
			return nil
		}
		pendings := make([]*client.Pending, len(entries))
		var werr error
		for i, e := range entries {
			p, perr := sp.startPublishCell(ctx, e, i)
			if perr != nil {
				werr = perr
				break
			}
			pendings[i] = p
		}
		for _, p := range pendings {
			if p == nil {
				continue
			}
			if _, perr := p.Wait(ctx); perr != nil && werr == nil {
				werr = perr
			}
		}
		return werr
	})
}

// commitSingle is the one-cell fast path: CAS the version to a
// self-describing lock word, publish the new cell over it. Two rounds, no
// log record — recovery state lives in the lock word itself.
func (sp *Space) commitSingle(ctx context.Context, ct commitTrace, e entry, startV simnet.VTime) error {
	sp.seq++
	lock := singleLockWord(sp.owner, e.expect)
	// As in commitInner, the lease clock starts at the lock round: a blind
	// write's word fetch happened before this call and holds nothing.
	startV = sp.vnow()
	err := ct.phase(ctx, "txn.lock", func(ctx context.Context) error {
		old, _, cerr := sp.data.CompareSwap(ctx, sp.cellOff(e.cell), e.expect, lock)
		if cerr != nil {
			return cerr
		}
		if old != e.expect {
			if wordLocked(old) {
				sp.noteSight(e.cell, old)
			}
			return errAborted
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := sp.failpoint(StageLocked); err != nil {
		return err
	}
	if sp.vnow().Sub(startV) > sp.opts.StaleLockTimeout/2 {
		// Too slow: a breaker may already have rolled the version forward.
		// Try to restore the prior word; whoever's CAS lands first wins, and
		// either way the new body must not be published.
		_, _, _ = sp.data.CompareSwap(ctx, sp.cellOff(e.cell), lock, e.expect)
		return errAborted
	}
	err = ct.phase(ctx, "txn.install", func(ctx context.Context) error {
		_, werr := sp.publishCell(ctx, e, 0)
		return werr
	})
	if err != nil {
		return err
	}
	return sp.failpoint(StageInstalled)
}

// fetchUnlockedWord reads a blind-write cell's word, waiting out (and
// after the stale window, breaking) locks.
func (sp *Space) fetchUnlockedWord(ctx context.Context, cell int) (uint64, error) {
	for retry := 0; retry < sp.opts.ReadRetries; retry++ {
		if _, err := sp.data.ReadAt(ctx, sp.cellOff(cell), sp.wordBuf, 0, 8); err != nil {
			return 0, ctxErr(ctx, err)
		}
		w := le64(sp.wordBuf.Bytes())
		if !wordLocked(w) {
			sp.clearSight(cell)
			return w, nil
		}
		sp.maybeBreak(ctx, cell, w)
		if err := backoff(ctx, retry); err != nil {
			return 0, err
		}
	}
	if ctx.Err() != nil {
		return 0, ctx.Err()
	}
	return 0, errAborted
}

// validateReads re-reads every read-set word not in skip and compares it
// to the captured version, then re-checks the region generation.
func (sp *Space) validateReads(ctx context.Context, tx *Tx, skip map[int][]byte) error {
	var cells []int
	for c := range tx.reads {
		if skip != nil {
			if _, ok := skip[c]; ok {
				continue
			}
		}
		cells = append(cells, c)
	}
	sort.Ints(cells)
	for base := 0; base < len(cells); base += valChunk {
		end := base + valChunk
		if end > len(cells) {
			end = len(cells)
		}
		chunk := cells[base:end]
		pendings := make([]*client.Pending, len(chunk))
		var err error
		for i, c := range chunk {
			p, perr := sp.data.StartReadAt(ctx, sp.cellOff(c), sp.valBuf, 8*i, 8)
			if perr != nil {
				err = perr
				break
			}
			pendings[i] = p
		}
		mismatch := false
		for i, p := range pendings {
			if p == nil {
				continue
			}
			if _, werr := p.Wait(ctx); werr != nil {
				if err == nil {
					err = werr
				}
				continue
			}
			if le64(sp.valBuf.Bytes()[8*i:]) != tx.reads[chunk[i]] {
				mismatch = true
			}
		}
		if err != nil {
			return err
		}
		if mismatch {
			return errAborted
		}
	}
	if tx.genSet && sp.data.Info().Generation != tx.gen {
		return errAborted
	}
	return nil
}

// abandonAttempt rolls back a commit attempt that lost before its commit
// point: the status word is retired PENDING→ABORTED first (so no breaker
// can roll the attempt forward afterwards), then every lock still held is
// released back to its prior version. All best-effort — a breaker racing
// us performs the exact same CASes.
func (sp *Space) abandonAttempt(ctx context.Context, pending uint64, locked []entry) {
	aborted := statusWord(stateAborted, statusIncarn(pending), statusSeq(pending))
	_, _, serr := sp.log.CompareSwap(ctx, sp.slotOff(sp.owner)+logStatusOff, pending, aborted)
	lock := lockWord(sp.owner, statusIncarn(pending), statusSeq(pending))
	var lerr error
	for _, e := range locked {
		if _, _, err := sp.data.CompareSwap(ctx, sp.cellOff(e.cell), lock, e.expect); err != nil {
			lerr = err
		}
	}
	if serr != nil || lerr != nil {
		// Some lock may still dangle, and only this slot's record can
		// resolve it. Do not reuse the slot before re-resolving.
		sp.unclean = true
	}
}

// publishCell writes one committed cell whole: the bumped version word,
// the new body, zero padding to the cell boundary. bufSlot selects this
// cell's chunk of the publish staging buffer.
func (sp *Space) publishCell(ctx context.Context, e entry, bufSlot int) (client.IOStat, error) {
	p, err := sp.startPublishCell(ctx, e, bufSlot)
	if err != nil {
		return client.IOStat{}, err
	}
	return p.Wait(ctx)
}

func (sp *Space) startPublishCell(ctx context.Context, e entry, bufSlot int) (*client.Pending, error) {
	cs := sp.opts.CellSize
	chunk := sp.pubBuf.Bytes()[bufSlot*cs : (bufSlot+1)*cs]
	put64(chunk, nextVersion(e.expect))
	n := copy(chunk[8:], e.body)
	for i := 8 + n; i < cs; i++ {
		chunk[i] = 0
	}
	return sp.data.StartWriteAt(ctx, sp.cellOff(e.cell), sp.pubBuf, bufSlot*cs, cs)
}

// failpoint consults the test-only FailPoint hook. A cut attempt leaves
// its locks and record exactly as they are — and marks the handle
// unclean, so a reused handle (modeling a client that lived on) resolves
// its own slot before staging another record.
func (sp *Space) failpoint(stage CommitStage) error {
	if sp.FailPoint == nil {
		return nil
	}
	err := sp.FailPoint(stage)
	if err != nil {
		sp.unclean = true
	}
	return err
}
