package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"rstore/internal/rdma"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// Wire header layout (little endian):
//
//	reqID   uint64
//	msgType uint16
//	flags   uint8   (bit 0: response, bit 1: error)
//	_pad    uint8
//	length  uint32  (payload bytes following the header)
//	traceID uint64  (telemetry trace propagation; 0 = untraced)
//	spanID  uint64  (caller's span, the parent of any span the callee
//	                 starts; 0 = none)
const headerSize = 32

const (
	flagResponse = 1 << 0
	flagError    = 1 << 1
)

// RPC-layer errors.
var (
	ErrConnClosed = errors.New("rpc: connection closed")
	ErrTooLarge   = errors.New("rpc: message exceeds buffer size")
)

// RemoteError is a failure reported by the remote handler.
type RemoteError struct {
	MsgType uint16
	Msg     string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error for type %d: %s", e.MsgType, e.Msg)
}

// Options tunes a connection's buffering.
type Options struct {
	// BufSize is the size of each message buffer; it bounds the largest
	// request or response. Default 256 KiB.
	BufSize int
	// Credits is the number of outstanding messages per direction.
	// Default 16.
	Credits int
	// ServerCPU is the modeled per-request handler overhead charged on the
	// control path. Default 1us.
	ServerCPU time.Duration
	// CallTimeout is the wall-clock deadline applied to each Call whose
	// context has none, so a partitioned or dead peer can never hang a
	// caller forever. Default 10s; negative disables.
	CallTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.BufSize <= 0 {
		o.BufSize = 256 << 10
	}
	if o.Credits <= 0 {
		o.Credits = 16
	}
	if o.ServerCPU <= 0 {
		o.ServerCPU = time.Microsecond
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 10 * time.Second
	}
	return o
}

// endpoint wraps a QP with registered message buffers and the shared
// send/receive machinery used by both Conn (client) and server sessions.
type endpoint struct {
	qp           *rdma.QP
	opts         Options
	creditStalls *telemetry.Counter

	sendMRs  []*rdma.MemoryRegion
	sendFree chan int // indices into sendMRs

	recvMRs []*rdma.MemoryRegion
}

func newEndpoint(qp *rdma.QP, opts Options) (*endpoint, error) {
	opts = opts.withDefaults()
	ep := &endpoint{
		qp:           qp,
		opts:         opts,
		creditStalls: qp.Device().Telemetry().Counter("rpc.credit_stalls"),
		sendFree:     make(chan int, opts.Credits),
	}
	pd := qp.PD()
	for i := 0; i < opts.Credits; i++ {
		smr, err := pd.RegisterMemory(make([]byte, headerSize+opts.BufSize), 0)
		if err != nil {
			return nil, fmt.Errorf("register send buffer: %w", err)
		}
		ep.sendMRs = append(ep.sendMRs, smr)
		ep.sendFree <- i

		rmr, err := pd.RegisterMemory(make([]byte, headerSize+opts.BufSize), rdma.AccessLocalWrite)
		if err != nil {
			return nil, fmt.Errorf("register recv buffer: %w", err)
		}
		ep.recvMRs = append(ep.recvMRs, rmr)
		if err := qp.PostRecv(rdma.RecvWR{WRID: uint64(i), Local: rdma.SGE{MR: rmr, Len: headerSize + opts.BufSize}}); err != nil {
			return nil, fmt.Errorf("post recv: %w", err)
		}
	}
	return ep, nil
}

// send marshals one message into a free send buffer and posts it. startV
// lets the caller chain virtual time (zero = NIC-free time).
func (ep *endpoint) send(ctx context.Context, reqID uint64, msgType uint16, flags uint8, traceID telemetry.TraceID, spanID telemetry.SpanID, payload []byte, startV simnet.VTime) error {
	if len(payload) > ep.opts.BufSize {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(payload), ep.opts.BufSize)
	}
	var idx int
	select {
	case idx = <-ep.sendFree:
	default:
		// All credits are in flight: the caller is about to block on the
		// peer's consumption rate. Count it — credit stalls are the RPC
		// layer's back-pressure signal.
		ep.creditStalls.Inc()
		select {
		case idx = <-ep.sendFree:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	mr := ep.sendMRs[idx]
	buf := mr.Bytes()
	binary.LittleEndian.PutUint64(buf[0:], reqID)
	binary.LittleEndian.PutUint16(buf[8:], msgType)
	buf[10] = flags
	buf[11] = 0
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[16:], uint64(traceID))
	binary.LittleEndian.PutUint64(buf[24:], uint64(spanID))
	copy(buf[headerSize:], payload)

	if err := ep.qp.PostSend(rdma.SendWR{
		WRID:   uint64(idx),
		Op:     rdma.OpSend,
		Local:  rdma.SGE{MR: mr, Len: headerSize + len(payload)},
		StartV: startV,
	}); err != nil {
		// The WR was never queued, so the buffer is free again. Without
		// this, every post against a dead QP would leak one credit and the
		// connection would wedge after Credits failures.
		ep.sendFree <- idx
		return err
	}
	return nil
}

// recycleSend returns the completed send buffer to the freelist.
func (ep *endpoint) recycleSend(wc rdma.WC) {
	select {
	case ep.sendFree <- int(wc.WRID):
	default:
		// Freelist can never overflow: each index is outstanding at most once.
	}
}

// message is one decoded inbound frame.
type message struct {
	reqID   uint64
	msgType uint16
	flags   uint8
	traceID telemetry.TraceID
	spanID  telemetry.SpanID // sender's span (parent for callee spans)
	payload []byte           // copied out of the recv buffer
	doneV   simnet.VTime
}

// repostAndParse copies out the message from a completed receive and
// reposts the buffer.
func (ep *endpoint) repostAndParse(wc rdma.WC) (message, error) {
	idx := int(wc.WRID)
	if idx < 0 || idx >= len(ep.recvMRs) {
		return message{}, fmt.Errorf("rpc: bogus recv wrid %d", wc.WRID)
	}
	mr := ep.recvMRs[idx]
	buf := mr.Bytes()
	if wc.ByteLen < headerSize {
		return message{}, fmt.Errorf("%w: frame of %d", ErrShortMessage, wc.ByteLen)
	}
	m := message{
		reqID:   binary.LittleEndian.Uint64(buf[0:]),
		msgType: binary.LittleEndian.Uint16(buf[8:]),
		flags:   buf[10],
		traceID: telemetry.TraceID(binary.LittleEndian.Uint64(buf[16:])),
		spanID:  telemetry.SpanID(binary.LittleEndian.Uint64(buf[24:])),
		doneV:   wc.DoneV,
	}
	n := int(binary.LittleEndian.Uint32(buf[12:]))
	if headerSize+n > wc.ByteLen {
		return message{}, fmt.Errorf("%w: payload %d beyond frame %d", ErrShortMessage, n, wc.ByteLen)
	}
	m.payload = make([]byte, n)
	copy(m.payload, buf[headerSize:headerSize+n])
	if err := ep.qp.PostRecv(rdma.RecvWR{WRID: wc.WRID, Local: rdma.SGE{MR: mr, Len: headerSize + ep.opts.BufSize}}); err != nil {
		return m, fmt.Errorf("repost recv: %w", err)
	}
	return m, nil
}

// Conn is the client side of an RPC connection.
type Conn struct {
	ep *endpoint

	callsOut     *telemetry.Counter
	callErrors   *telemetry.Counter
	callTimeouts *telemetry.Counter
	callLatency  *telemetry.Histogram
	tracer       *telemetry.Tracer

	mu       sync.Mutex
	nextID   uint64
	inflight map[uint64]chan message
	closed   bool
	closeErr error

	done chan struct{}
	wg   sync.WaitGroup
}

// NewConn wraps an already-connected QP as an RPC client connection and
// starts its receive loop.
func NewConn(qp *rdma.QP, opts Options) (*Conn, error) {
	ep, err := newEndpoint(qp, opts)
	if err != nil {
		return nil, err
	}
	tel := qp.Device().Telemetry()
	c := &Conn{
		ep:           ep,
		callsOut:     tel.Counter("rpc.calls_out"),
		callErrors:   tel.Counter("rpc.call_errors"),
		callTimeouts: tel.Counter("rpc.call_timeouts"),
		callLatency:  tel.Histogram("rpc.call_latency"),
		tracer:       tel.Tracer(),
		nextID:       1,
		inflight:     make(map[uint64]chan message),
		done:         make(chan struct{}),
	}
	c.wg.Add(2)
	go c.recvLoop()
	go c.sendLoop()
	return c, nil
}

// Dial connects to an RPC service and returns the client connection.
func Dial(ctx context.Context, dev *rdma.Device, node simnet.NodeID, service string, pd *rdma.PD, opts Options) (*Conn, error) {
	o := opts.withDefaults()
	qp, err := dev.Dial(ctx, node, service, pd, rdma.ConnOpts{SendDepth: o.Credits * 2, RecvDepth: o.Credits * 2})
	if err != nil {
		return nil, err
	}
	c, err := NewConn(qp, o)
	if err != nil {
		qp.Close()
		return nil, err
	}
	return c, nil
}

// NewConnCache returns a cache of client connections, one per key, that
// hands a connection out until it has failed (Err) and closes the ones it
// retires.
func NewConnCache[K comparable]() *rdma.Cache[K, *Conn] {
	return rdma.NewCache(func(_ K, c *Conn) bool { return c.Err() == nil }, (*Conn).Close)
}

// QP exposes the underlying queue pair (for PD sharing and stats).
func (c *Conn) QP() *rdma.QP { return c.ep.qp }

func (c *Conn) recvLoop() {
	defer c.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-c.done
		cancel()
	}()
	for {
		wc, err := c.ep.qp.RecvCQ().Next(ctx)
		if err != nil {
			c.failAll(ErrConnClosed)
			return
		}
		if wc.Status != rdma.StatusSuccess {
			c.failAll(fmt.Errorf("%w: recv %v", ErrConnClosed, wc.Status))
			return
		}
		m, err := c.ep.repostAndParse(wc)
		if err != nil {
			c.failAll(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.inflight[m.reqID]
		delete(c.inflight, m.reqID)
		c.mu.Unlock()
		if ok {
			ch <- m
		}
	}
}

// sendLoop drains send completions to recycle buffers. It runs on its own
// goroutine because send failures must be noticed even when no responses
// flow: under a partition the recv loop blocks forever, and without this
// loop the failed SEND's error completion would sit unread, the connection
// would still look healthy, and every call would burn its full timeout.
func (c *Conn) sendLoop() {
	defer c.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-c.done
		cancel()
	}()
	for {
		wc, err := c.ep.qp.SendCQ().Next(ctx)
		if err != nil {
			return
		}
		if wc.Status != rdma.StatusSuccess {
			c.failAll(fmt.Errorf("%w: send %v", ErrConnClosed, wc.Status))
			return
		}
		c.ep.recycleSend(wc)
	}
}

func (c *Conn) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closeErr == nil {
		c.closeErr = err
	}
	for id, ch := range c.inflight {
		delete(c.inflight, id)
		close(ch)
	}
}

// Err returns the terminal error of a failed connection, or nil while the
// connection is usable. Callers use it to decide between retrying on the
// same connection and re-dialing.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closeErr != nil {
		return c.closeErr
	}
	if c.closed {
		return ErrConnClosed
	}
	return nil
}

// Call issues a request and waits for the matching response. It returns
// the response payload and the modeled control-path latency of the full
// round trip. A context without a deadline is bounded by the connection's
// CallTimeout, so calls against a partitioned peer fail instead of hanging.
func (c *Conn) Call(ctx context.Context, msgType uint16, req []byte) ([]byte, time.Duration, error) {
	if _, ok := ctx.Deadline(); !ok && c.ep.opts.CallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.ep.opts.CallTimeout)
		defer cancel()
	}
	c.mu.Lock()
	if c.closed || c.closeErr != nil {
		err := c.closeErr
		c.mu.Unlock()
		if err == nil {
			err = ErrConnClosed
		}
		return nil, 0, err
	}
	id := c.nextID
	c.nextID++
	ch := make(chan message, 1)
	c.inflight[id] = ch
	c.mu.Unlock()

	c.callsOut.Inc()
	trace := telemetry.TraceFrom(ctx)
	var span telemetry.SpanID
	if trace != 0 {
		span = c.tracer.NewSpan()
	}
	startV := c.ep.qp.VNow()
	if err := c.ep.send(ctx, id, msgType, 0, trace, span, req, startV); err != nil {
		c.mu.Lock()
		delete(c.inflight, id)
		c.mu.Unlock()
		if errors.Is(err, rdma.ErrQPState) {
			// The QP is dead (peer gone, partition, retries exhausted). The
			// recv loop may never see a completion to notice this, so mark
			// the connection failed here: Err() turns non-nil and callers
			// know to re-dial rather than retry on a corpse.
			c.failAll(fmt.Errorf("%w: %v", ErrConnClosed, err))
		}
		c.callErrors.Inc()
		return nil, 0, fmt.Errorf("rpc call type %d: %w", msgType, err)
	}

	select {
	case m, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.closeErr
			c.mu.Unlock()
			if err == nil {
				err = ErrConnClosed
			}
			c.callErrors.Inc()
			return nil, 0, fmt.Errorf("rpc call type %d: %w", msgType, err)
		}
		lat := m.doneV.Sub(startV)
		if lat < 0 {
			lat = 0
		}
		c.callLatency.RecordDuration(lat)
		if trace != 0 {
			c.tracer.Record(telemetry.Span{
				Trace:  trace,
				ID:     span,
				Parent: telemetry.SpanFrom(ctx),
				Name:   fmt.Sprintf("rpc.call.%d", msgType),
				StartV: startV,
				EndV:   m.doneV,
			})
		}
		if m.flags&flagError != 0 {
			c.callErrors.Inc()
			return nil, lat, &RemoteError{MsgType: msgType, Msg: string(m.payload)}
		}
		return m.payload, lat, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.inflight, id)
		c.mu.Unlock()
		c.callTimeouts.Inc()
		return nil, 0, fmt.Errorf("rpc call type %d: %w", msgType, ctx.Err())
	}
}

// Close tears down the connection. In-flight calls fail with ErrConnClosed.
func (c *Conn) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.done)
	c.ep.qp.Close()
	c.wg.Wait()
}
