package client

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"rstore/internal/proto"
	"rstore/internal/rdma"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// atomicVTime is a monotonically increasing virtual-time cell.
type atomicVTime struct {
	v atomic.Int64
}

func (a *atomicVTime) load() simnet.VTime { return simnet.VTime(a.v.Load()) }

func (a *atomicVTime) max(t simnet.VTime) {
	for {
		cur := a.v.Load()
		if int64(t) <= cur || a.v.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// opCopy is one copy's share of an operation: the fragments planned for it
// and their outcome. idx is the master's numbering: 0 is the primary, i>0
// is replica i-1.
type opCopy struct {
	idx   int
	frags []proto.Fragment
	err   error        // first failure; nil once done means every fragment landed
	doneV simnet.VTime // latest fragment completion
}

// ioOp is the data path's one future: it counts down every fragment of
// every copy of one operation (a read of one copy, a write to all of them,
// an atomic on the primary word) behind one mutex and one done channel,
// keeping a per-copy outcome. Pending and AtomicPending are its exported
// faces.
type ioOp struct {
	kind opKind
	ot   opTrace
	// startV is the client's virtual time at issue, stamped on every
	// fragment of every copy, so neither per-QP cursors nor an earlier
	// copy's completions can leak into the operation's latency.
	startV simnet.VTime
	// clock is the client's cursor, lifted to the operation's last
	// completion when it finishes.
	clock  *atomicVTime
	tracer *telemetry.Tracer // numbers fragment spans of a traced op
	done   chan struct{}

	mu        sync.Mutex
	remaining int // fragments not yet accounted for, across all copies
	copies    []opCopy
	lastDone  simnet.VTime // latest completion of any copy, failed ones included
	old       uint64       // an atomic's prior word
	// spans buffers one io.* span per completed fragment of a traced op,
	// recorded only at Wait: provisional traces (minted in case the flight
	// recorder promotes the op) cost the tracer nothing unless it is slow.
	spans []telemetry.Span
}

// init arms the future over the planned copies. An operation with nothing
// to transfer (n == 0) is complete at once.
func (op *ioOp) init(kind opKind, copies []opCopy, startV simnet.VTime, clock *atomicVTime) {
	op.kind, op.copies, op.startV, op.clock = kind, copies, startV, clock
	op.done = make(chan struct{})
	for i := range copies {
		op.remaining += len(copies[i].frags)
	}
	if op.remaining == 0 {
		close(op.done)
	}
}

// takeSpans drains the buffered fragment spans.
func (op *ioOp) takeSpans() []telemetry.Span {
	op.mu.Lock()
	defer op.mu.Unlock()
	spans := op.spans
	op.spans = nil
	return spans
}

// completeOne folds one work completion into copy slot ci. server is the
// node the fragment targeted (for span attribution).
func (op *ioOp) completeOne(wc rdma.WC, server simnet.NodeID, ci int) {
	op.mu.Lock()
	c := &op.copies[ci]
	if wc.Status != rdma.StatusSuccess && c.err == nil {
		if wc.Err != nil {
			c.err = fmt.Errorf("%w: %v: %v", ErrIOFailed, wc.Status, wc.Err)
		} else {
			c.err = fmt.Errorf("%w: %v", ErrIOFailed, wc.Status)
		}
	}
	if wc.DoneV > c.doneV {
		c.doneV = wc.DoneV
	}
	if wc.DoneV > op.lastDone {
		op.lastDone = wc.DoneV
	}
	if op.ot.id != 0 {
		sp := telemetry.Span{
			Trace:  op.ot.id,
			ID:     op.tracer.NewSpan(),
			Parent: op.ot.span,
			Name:   op.kind.names().io,
			Node:   server,
			StartV: op.startV,
			EndV:   wc.DoneV,
		}
		if sp.EndV < sp.StartV {
			sp.EndV = sp.StartV // flushed completions carry no DoneV
		}
		if wc.Status != rdma.StatusSuccess {
			sp.Err = wc.Status.String()
		}
		op.spans = append(op.spans, sp)
	}
	op.old = wc.Old
	op.settle(1)
}

// failCopy marks copy slot ci failed before all of its fragments were
// posted; the unposted ones will never complete, so they are settled here.
func (op *ioOp) failCopy(ci int, err error, unposted int) {
	op.mu.Lock()
	if c := &op.copies[ci]; c.err == nil {
		c.err = err
	}
	op.settle(unposted)
}

// settle accounts for n fragments and releases op.mu, which the caller
// holds. The last fragment finishes the future: the client's clock moves to
// the operation's last completion and waiters wake.
func (op *ioOp) settle(n int) {
	op.remaining -= n
	finished, last := op.remaining == 0, op.lastDone
	op.mu.Unlock()
	if finished {
		op.clock.max(last)
		close(op.done)
	}
}

// IOStat describes one completed data-path operation in virtual time.
type IOStat struct {
	// Fragments is how many one-sided operations the access translated to.
	Fragments int
	// PostedV and DoneV bound the operation in modeled time; DoneV-PostedV
	// is its modeled latency.
	PostedV simnet.VTime
	DoneV   simnet.VTime
}

// Latency returns the modeled service time.
func (s IOStat) Latency() simnet.VTime { return s.DoneV - s.PostedV }

// wait blocks until every fragment of every copy is accounted for, or ctx
// fires. The operation succeeded iff at least one copy landed completely:
// st then covers the complete copies (fragments summed, DoneV the latest of
// them) and failed lists the ones that missed; with no complete copy the
// first failed copy's error is returned. A ctx that fires first says
// nothing about any copy: the error wraps ErrIOFailed and the ctx error.
func (op *ioOp) wait(ctx context.Context) (st IOStat, failed []int, err error) {
	select {
	case <-op.done:
	case <-ctx.Done():
		return IOStat{}, nil, fmt.Errorf("%w: %w", ErrIOFailed, ctx.Err())
	}
	op.mu.Lock()
	defer op.mu.Unlock()
	st = IOStat{PostedV: op.startV, DoneV: op.startV}
	complete := 0
	for i := range op.copies {
		c := &op.copies[i]
		if c.err != nil {
			if err == nil {
				err = c.err
			}
			failed = append(failed, c.idx)
			continue
		}
		complete++
		st.Fragments += len(c.frags)
		if c.doneV > st.DoneV {
			st.DoneV = c.doneV
		}
	}
	if complete == 0 {
		return IOStat{}, nil, err
	}
	return st, failed, nil
}

// serverConn owns the one-sided QP to one memory server plus the
// completion dispatcher that resolves futures.
type serverConn struct {
	qp *rdma.QP
	// node is the memory server this connection targets; fragment spans
	// are attributed to it.
	node simnet.NodeID
	// seen is the master's verdict on the server at dial time. A later
	// snapshot with a higher epoch means the server bounced: the peer QP and
	// arena behind this connection no longer exist, so the connection must
	// be replaced even though the local QP still looks ready (see
	// Client.serverCurrent).
	seen serverSeen
	// scratch is the registered 8-byte word every atomic on this connection
	// names as its result buffer. The QP executes in order on one worker, so
	// it has one writer, and nobody reads it: the prior value travels in the
	// completion (WC.Old). Atomics therefore never take a staging chunk.
	scratch *rdma.MemoryRegion

	mu      sync.Mutex
	nextWR  uint64
	pending map[uint64]postedWR

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// postedWR names the future, and the copy slot within it, that one posted
// work request completes into.
type postedWR struct {
	op *ioOp
	ci int
}

func newServerConn(qp *rdma.QP, scratch *rdma.MemoryRegion, seen serverSeen) *serverConn {
	ctx, cancel := context.WithCancel(context.Background())
	sc := &serverConn{
		qp:      qp,
		node:    qp.RemoteNode(),
		seen:    seen,
		scratch: scratch,
		pending: make(map[uint64]postedWR),
		cancel:  cancel,
	}
	sc.wg.Add(1)
	go sc.dispatch(ctx)
	return sc
}

func (sc *serverConn) healthy() bool {
	return sc.qp.State() == rdma.QPReady
}

func (sc *serverConn) close() {
	sc.cancel()
	sc.qp.Close() // returns once the QP's worker has exited: scratch is quiescent
	sc.wg.Wait()
	sc.scratch.Deregister()
	// Fail anything still pending (flushed completions normally cover
	// this; belt and braces for dispatcher teardown races).
	sc.mu.Lock()
	pend := sc.pending
	sc.pending = make(map[uint64]postedWR)
	sc.mu.Unlock()
	for _, p := range pend {
		p.op.completeOne(rdma.WC{Status: rdma.StatusFlushed, Err: rdma.ErrQPState}, sc.node, p.ci)
	}
}

// dispatch resolves completions to futures.
func (sc *serverConn) dispatch(ctx context.Context) {
	defer sc.wg.Done()
	cq := sc.qp.SendCQ()
	for {
		wc, err := cq.Next(ctx)
		if err != nil {
			return
		}
		sc.mu.Lock()
		p, ok := sc.pending[wc.WRID]
		delete(sc.pending, wc.WRID)
		sc.mu.Unlock()
		if ok {
			p.op.completeOne(wc, sc.node, p.ci)
		}
	}
}

// post registers the WR with copy slot ci of the future and posts it.
func (sc *serverConn) post(wr rdma.SendWR, op *ioOp, ci int) error {
	sc.mu.Lock()
	sc.nextWR++
	wr.WRID = sc.nextWR
	sc.pending[wr.WRID] = postedWR{op, ci}
	sc.mu.Unlock()
	if err := sc.qp.PostSend(wr); err != nil {
		sc.mu.Lock()
		delete(sc.pending, wr.WRID)
		sc.mu.Unlock()
		return err
	}
	return nil
}
