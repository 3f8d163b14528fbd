package client

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"rstore/internal/proto"
	"rstore/internal/rdma"
	"rstore/internal/rpc"
)

// Region is a mapped region: the client-side handle of a named, striped
// window of cluster DRAM. All methods are safe for concurrent use.
type Region struct {
	c *Client
	// info holds the current metadata snapshot; Remap swaps in a fresh one
	// atomically so in-flight operations keep a consistent view.
	info atomic.Pointer[proto.RegionInfo]
	// stale is set by a repair-plane invalidation push (the layout
	// changed); the next data-path operation remaps before issuing.
	stale atomic.Bool

	// leaseTermNs is the layout lease the master granted at Map/Remap time,
	// in virtual nanoseconds (0 = no lease discipline, serve forever), and
	// leaseExpiry the virtual time it lapses. An expired lease triggers a
	// renewal remap; while the master group is unavailable the region keeps
	// serving one-sided I/O off the cached layout under a short renewal
	// cooldown — the paper's separation philosophy applied to failover.
	leaseTermNs atomic.Int64
	leaseExpiry atomic.Int64

	unmapped atomic.Bool
}

func newRegion(c *Client, info *proto.RegionInfo, leaseNs uint64) *Region {
	r := &Region{c: c}
	r.info.Store(info)
	r.armLease(leaseNs)
	c.registerRegion(r)
	return r
}

// armLease installs a freshly granted lease term and re-arms its expiry
// from the client's virtual clock.
func (r *Region) armLease(leaseNs uint64) {
	r.leaseTermNs.Store(int64(leaseNs))
	if leaseNs > 0 {
		r.leaseExpiry.Store(int64(r.c.VNow()) + int64(leaseNs))
	}
}

// refreshIfStale remaps before issuing when an invalidation push marked
// the snapshot stale. Best effort: if the remap fails the operation
// proceeds on the old snapshot (a surviving copy may still serve it) and
// the stale mark is restored for the next attempt. With no stale mark an
// expired layout lease also triggers a renewal.
func (r *Region) refreshIfStale(ctx context.Context) {
	if r.stale.CompareAndSwap(true, false) {
		if err := r.Remap(ctx); err != nil {
			r.stale.Store(true)
		}
		return
	}
	r.refreshLease(ctx)
}

// refreshLease renews the layout lease when it has expired. Exactly one
// in-flight operation claims the renewal (a CAS pushes the expiry out by
// a quarter term as a cooldown) so concurrent data-path ops never
// stampede the master; if the renewal fails — the usual case being
// ErrMasterUnavailable mid-failover — the region keeps serving off the
// cached layout and the cooldown retries renewal shortly. Stale layouts
// are still caught by the one-sided path itself: a failed access against
// a replaced layout remaps via remapFreshGeneration.
func (r *Region) refreshLease(ctx context.Context) {
	term := r.leaseTermNs.Load()
	if term <= 0 {
		return
	}
	now := int64(r.c.VNow())
	exp := r.leaseExpiry.Load()
	if now < exp {
		return
	}
	if !r.leaseExpiry.CompareAndSwap(exp, now+term/4) {
		return
	}
	_ = r.Remap(ctx) // success re-arms the full term
}

// Info returns the region's current metadata snapshot.
func (r *Region) Info() *proto.RegionInfo { return r.info.Load() }

// Name returns the region's name.
func (r *Region) Name() string { return r.Info().Name }

// Size returns the region's size in bytes.
func (r *Region) Size() uint64 { return r.Info().Size }

// Generation returns the region's layout generation as currently mapped.
// The repair plane bumps it whenever extents move; layers that cache
// region contents client-side key their invalidation off it.
func (r *Region) Generation() uint64 { return r.Info().Generation }

// Remap refetches the region's metadata from the master and re-establishes
// server connections (the recovery step after a memory-server bounce). It
// is idempotent — the master does not count it as an additional mapping —
// so callers retry it freely. Data written before the failure is NOT
// recovered unless the region has replicas; Remap restores access, not
// contents. Returns ErrRegionLost when a participating server is
// unreachable and the master has declared it dead.
func (r *Region) Remap(ctx context.Context) error {
	if err := r.checkMapped(); err != nil {
		return err
	}
	r.c.ctr.remaps.Inc()
	name := r.Info().Name
	info, lease, err := r.c.fetchLayout(ctx, proto.MtRemap, name)
	if err != nil {
		return fmt.Errorf("remap %q: %w", name, err)
	}
	r.info.Store(info)
	r.armLease(lease)
	return nil
}

// Unmap detaches from the region (the paper's runmap). Data-path calls
// fail afterwards; the region itself lives on until Free.
func (r *Region) Unmap(ctx context.Context) error {
	if !r.unmapped.CompareAndSwap(false, true) {
		return nil
	}
	r.c.unregisterRegion(r)
	name := r.Info().Name
	var e rpc.Encoder
	e.String(name)
	if _, err := r.c.call(ctx, proto.MtUnmap, e.Bytes()); err != nil {
		return fmt.Errorf("unmap %q: %w", name, err)
	}
	return nil
}

func (r *Region) checkMapped() error {
	if r.unmapped.Load() {
		return fmt.Errorf("%w: %q", ErrRegionClosed, r.Info().Name)
	}
	return nil
}

// access is one data-path request as its caller stated it. Atomics carry
// no buffer: their result word is the target connection's scratch.
type access struct {
	kind   opKind
	opcode rdma.OpCode
	off    uint64
	n      int
	buf    *Buf
	bufOff int
	// add is the FETCH_ADD operand; cmp and swap drive CMP_SWAP.
	add, cmp, swap uint64
}

func transfer(kind opKind, opcode rdma.OpCode, off uint64, buf *Buf, bufOff, n int) access {
	return access{kind: kind, opcode: opcode, off: off, n: n, buf: buf, bufOff: bufOff}
}

func atomicOp(opcode rdma.OpCode, off, add, cmp, swap uint64) access {
	return access{kind: opAtomic, opcode: opcode, off: off, n: 8, add: add, cmp: cmp, swap: swap}
}

// plan resolves an access against one layout snapshot into the per-copy
// fragment lists the operation will post — the only place the data path
// translates offsets. A read takes one copy, the one named by first (0 is
// the primary; failover asks for the next); a write takes every copy,
// resolved before anything is issued so a bad range cannot leave a partial
// write in flight; an atomic takes the primary copy's word, which must sit
// inside one stripe unit.
func plan(info *proto.RegionInfo, a access, first int) ([]opCopy, error) {
	last := first
	if a.kind == opWrite {
		last = len(info.Replicas)
	}
	copies := make([]opCopy, 0, last-first+1)
	for ci := first; ci <= last; ci++ {
		var (
			frags []proto.Fragment
			err   error
		)
		if ci == 0 {
			frags, err = info.Fragments(a.off, a.n)
		} else if frags, err = info.ReplicaFragments(ci-1, a.off, a.n); err != nil {
			err = fmt.Errorf("replica %d: %w", ci-1, err)
		}
		if err != nil {
			return nil, err
		}
		if a.kind == opAtomic && len(frags) != 1 {
			return nil, fmt.Errorf("%w: atomic at %d straddles a stripe boundary", proto.ErrBadRange, a.off)
		}
		copies = append(copies, opCopy{idx: ci, frags: frags})
	}
	return copies, nil
}

// Pending is an in-flight asynchronous operation: one future over every
// fragment of every copy the operation touches. A replicated write tracks
// each copy's outcome separately, so a dead replica fails only its own copy
// instead of sinking the whole write; Wait resolves the degraded outcome.
type Pending struct {
	ioOp
	r    *Region
	info *proto.RegionInfo // the layout the operation was planned against
}

// AtomicPending is an in-flight asynchronous atomic: the same future, over
// the one word it targets, whose Wait also returns the word's prior value.
type AtomicPending Pending

// start plans the access, stamps the operation with the client's virtual
// time, and posts one one-sided work request per fragment of every planned
// copy. A copy whose connection or post fails is failed in the future
// (ErrIOFailed) and the rest of it is not posted; the other copies still go
// out. The data path never retries a transport op.
//
// A fresh operation (prev == nil) runs against the current layout, remapped
// first if an invalidation push or an expired lease asks for it. A failover
// read passes the attempt that failed: it reads the next copy of the same
// layout and joins the same trace under its own envelope span.
func (r *Region) start(ctx context.Context, a access, prev *Pending) (*Pending, error) {
	p := &Pending{r: r}
	first := 0
	if prev == nil {
		if err := r.checkMapped(); err != nil {
			return nil, err
		}
		r.refreshIfStale(ctx)
		p.info = r.Info()
	} else {
		p.info, first = prev.info, prev.copies[0].idx+1
	}
	copies, err := plan(p.info, a, first)
	if err != nil {
		return nil, fmt.Errorf("%s %q: %w", a.kind.names().verb, p.info.Name, err)
	}
	if prev == nil {
		p.ot = r.c.startOp(ctx)
	} else if p.ot = prev.ot; p.ot.id != 0 {
		p.ot.span = r.c.tracer.NewSpan()
	}
	p.tracer = r.c.tracer
	p.init(a.kind, copies, r.c.VNow(), &r.c.vnow)
	for ci := range copies {
		frags := copies[ci].frags
		for i, f := range frags {
			sc, err := r.c.conns.Get(ctx, f.Server, r.c.dialServer)
			if err == nil {
				wr := rdma.SendWR{
					Op:         a.opcode,
					Local:      rdma.SGE{MR: sc.scratch, Len: 8},
					RemoteKey:  f.RKey,
					RemoteAddr: f.Addr,
					Add:        a.add,
					Compare:    a.cmp,
					Swap:       a.swap,
					StartV:     p.startV,
				}
				if a.buf != nil {
					wr.Local = rdma.SGE{MR: a.buf.mr, Offset: uint64(a.bufOff + f.BufOff), Len: f.Len}
				}
				err = sc.post(wr, &p.ioOp, ci)
			}
			if err != nil {
				p.failCopy(ci, fmt.Errorf("%w: %v", ErrIOFailed, err), len(frags)-i)
				break
			}
		}
	}
	return p, nil
}

// Wait blocks until the operation completes and returns its stats. Every
// data-path operation, synchronous or not, resolves here, so this is where
// its outcome and latency reach the client's telemetry.
//
// The operation succeeds as long as at least one complete copy landed. For
// a replicated write that is degraded mode: copies that missed the write
// are reported to the master in the background (MtReportDegraded) for the
// repair plane to re-sync. A ctx that expires first returns the ctx error
// (wrapped with ErrIOFailed), counts one failed op and reports no copy.
func (p *Pending) Wait(ctx context.Context) (IOStat, error) {
	st, failed, err := p.wait(ctx)
	// Fragment spans from failed copies are kept: a degraded write's trace
	// should show which copy's io missed.
	p.r.c.recordOp(p.kind, p.ot, st, err, p.takeSpans())
	if len(failed) > 0 {
		p.r.c.ctr.degradedWrites.Inc()
		p.r.reportDegradedAsync(p.info, failed)
	}
	return st, err
}

// Wait blocks until the atomic completes and returns the prior value of
// the word.
func (p *AtomicPending) Wait(ctx context.Context) (uint64, IOStat, error) {
	st, err := (*Pending)(p).Wait(ctx)
	if err != nil {
		return 0, IOStat{}, err
	}
	return p.old, st, nil // done is closed: no completion can still write old
}

// reportDegradedAsync tells the master which copies of the layout the write
// was planned against missed it, so the repair plane marks them dirty and
// re-syncs them. Runs in the background: degraded writes must not pay a
// master round-trip on the data path. A response generation ahead of that
// layout marks the handle stale so the next operation picks up the repaired
// one.
func (r *Region) reportDegradedAsync(info *proto.RegionInfo, copies []int) {
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, ci := range copies {
			gen, err := r.c.reportDegraded(ctx, info.Name, ci)
			if err != nil {
				return
			}
			if gen > info.Generation {
				r.stale.Store(true)
			}
		}
	}()
}

// transportFailure reports whether err is the one error class the data path
// recovers from: a one-sided access that failed on the wire (ErrIOFailed)
// while the caller's ctx is still live. Everything else is terminal — an
// unmapped region or a bad range fails the same way on any copy and any
// layout, and an expired ctx, although it surfaces wrapped in ErrIOFailed,
// leaves no time to try anything else.
func transportFailure(ctx context.Context, err error) bool {
	return ctx.Err() == nil && errors.Is(err, ErrIOFailed)
}

// attempt runs the access once against the current layout. Writes go to
// every copy and atomics to the primary word, so they are one start and one
// wait; a read whose copy fails on the wire fails over to the next copy in
// copy order, through the same start and wait.
func (r *Region) attempt(ctx context.Context, a access) (uint64, IOStat, error) {
	var (
		prev     *Pending
		firstErr error
	)
	for {
		p, err := r.start(ctx, a, prev)
		if err != nil {
			return 0, IOStat{}, err
		}
		st, err := p.Wait(ctx)
		if err == nil {
			if prev != nil {
				r.c.ctr.readFailovers.Inc()
			}
			return p.old, st, nil
		}
		replicas := len(p.info.Replicas)
		if !transportFailure(ctx, err) || a.kind != opRead || replicas == 0 {
			return 0, IOStat{}, err
		}
		if prev == nil {
			firstErr = err
		}
		if p.copies[0].idx == replicas {
			return 0, IOStat{}, fmt.Errorf("read %q: all copies failed: %w", p.info.Name, firstErr)
		}
		prev = p
	}
}

// do is the data path's one recovery step, shared by ReadAt, WriteAt,
// FetchAdd and CompareSwap: attempt; if that failed on the wire, ask the
// master whether the repair plane has replaced the layout
// (remapFreshGeneration); if so, attempt exactly once more against the
// fresh layout, and wrap a second failure in ErrStaleGeneration. Terminal
// errors (see transportFailure) return as they are.
func (r *Region) do(ctx context.Context, a access) (uint64, IOStat, error) {
	old, st, err := r.attempt(ctx, a)
	if !transportFailure(ctx, err) || !r.remapFreshGeneration(ctx) {
		return old, st, err
	}
	old, st, rerr := r.attempt(ctx, a)
	if rerr != nil {
		return 0, IOStat{}, fmt.Errorf("%w: %v (after %v)", ErrStaleGeneration, rerr, err)
	}
	return old, st, nil
}

// remapFreshGeneration checks whether a failed one-sided access can be
// explained by a repair-plane layout change: it remaps and reports whether
// the region's generation advanced past the snapshot the failed operation
// used. True means the caller should retry once against the fresh layout.
func (r *Region) remapFreshGeneration(ctx context.Context) bool {
	gen := r.Info().Generation
	if r.Remap(ctx) != nil || r.Info().Generation == gen {
		return false
	}
	r.c.ctr.staleRemaps.Inc()
	return true
}

// StartWriteAt begins an asynchronous write of buf[bufOff:bufOff+n] into
// the region at off. With replicas configured, the write goes to every
// copy (write-through); a dead replica degrades the write instead of
// failing it (see Pending.Wait).
func (r *Region) StartWriteAt(ctx context.Context, off uint64, buf *Buf, bufOff, n int) (*Pending, error) {
	return r.start(ctx, transfer(opWrite, rdma.OpWrite, off, buf, bufOff, n), nil)
}

// WriteAt writes buf[bufOff:bufOff+n] to the region at off, zero copy.
// A failure that turns out to be a repair-plane layout change (the
// region's generation advanced) is retried once against the fresh layout;
// if the retry also fails the error wraps ErrStaleGeneration.
func (r *Region) WriteAt(ctx context.Context, off uint64, buf *Buf, bufOff, n int) (IOStat, error) {
	_, st, err := r.do(ctx, transfer(opWrite, rdma.OpWrite, off, buf, bufOff, n))
	return st, err
}

// StartReadAt begins an asynchronous read of [off, off+n) of the primary
// copy into buf[bufOff:].
func (r *Region) StartReadAt(ctx context.Context, off uint64, buf *Buf, bufOff, n int) (*Pending, error) {
	return r.start(ctx, transfer(opRead, rdma.OpRead, off, buf, bufOff, n), nil)
}

// ReadAt reads [off, off+n) into buf[bufOff:], zero copy. If the primary
// copy fails and the region has replicas, the read fails over to each
// replica in turn; if every copy fails against a layout the repair plane
// has since replaced, the read remaps and retries once.
func (r *Region) ReadAt(ctx context.Context, off uint64, buf *Buf, bufOff, n int) (IOStat, error) {
	_, st, err := r.do(ctx, transfer(opRead, rdma.OpRead, off, buf, bufOff, n))
	return st, err
}

// Write copies p into the region at off via an internal staging buffer.
// Zero-copy callers should use WriteAt with a registered Buf instead.
func (r *Region) Write(ctx context.Context, off uint64, p []byte) error {
	return r.staged(ctx, off, p, true)
}

// Read copies [off, off+len(p)) of the region into p via an internal
// staging buffer.
func (r *Region) Read(ctx context.Context, off uint64, p []byte) error {
	return r.staged(ctx, off, p, false)
}

// staged moves p through a borrowed staging chunk, one chunk at a time.
func (r *Region) staged(ctx context.Context, off uint64, p []byte, write bool) error {
	for len(p) > 0 {
		st := r.c.acquireStaging()
		n := min(len(p), st.Len())
		var err error
		if write {
			copy(st.Bytes(), p[:n])
			_, err = r.WriteAt(ctx, off, st, 0, n)
		} else if _, err = r.ReadAt(ctx, off, st, 0, n); err == nil {
			copy(p, st.Bytes()[:n])
		}
		r.c.releaseStaging(st)
		if err != nil {
			return err
		}
		off += uint64(n)
		p = p[n:]
	}
	return nil
}

// FetchAdd atomically adds delta to the 8-byte little-endian word at off
// (primary copy) and returns the prior value. Atomicity holds against all
// other RStore atomics targeting the same server. The word must not
// straddle a stripe boundary.
func (r *Region) FetchAdd(ctx context.Context, off uint64, delta uint64) (uint64, IOStat, error) {
	return r.do(ctx, atomicOp(rdma.OpFetchAdd, off, delta, 0, 0))
}

// CompareSwap atomically replaces the word at off with swap if it equals
// cmp, returning the prior value.
func (r *Region) CompareSwap(ctx context.Context, off uint64, cmp, swap uint64) (uint64, IOStat, error) {
	return r.do(ctx, atomicOp(rdma.OpCmpSwap, off, 0, cmp, swap))
}

// StartFetchAdd begins an asynchronous FETCH_ADD on the word at off.
// Issuing several independent atomics before waiting overlaps their
// round-trips — the transaction layer's lock and unlock fan-outs depend
// on this.
func (r *Region) StartFetchAdd(ctx context.Context, off uint64, delta uint64) (*AtomicPending, error) {
	p, err := r.start(ctx, atomicOp(rdma.OpFetchAdd, off, delta, 0, 0), nil)
	return (*AtomicPending)(p), err
}

// StartCompareSwap begins an asynchronous CMP_SWAP on the word at off.
func (r *Region) StartCompareSwap(ctx context.Context, off uint64, cmp, swap uint64) (*AtomicPending, error) {
	p, err := r.start(ctx, atomicOp(rdma.OpCmpSwap, off, 0, cmp, swap), nil)
	return (*AtomicPending)(p), err
}
