package telemetry

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rstore/internal/simnet"
)

// defaultTraceRing is the per-node span ring-buffer capacity.
const defaultTraceRing = 4096

// defaultFlightRing is the capacity of the flight-recorder ring that pins
// spans of slow or failed operations so they survive main-ring wraparound.
const defaultFlightRing = 256

// TraceID identifies one logical operation as it crosses layers and
// nodes. The originating node lives in the high 16 bits so IDs minted on
// different nodes never collide. Zero means "not traced".
type TraceID uint64

// newTraceID builds an ID from an origin node and a per-node sequence.
func newTraceID(node simnet.NodeID, seq uint64) TraceID {
	return TraceID(uint64(uint16(node))<<48 | (seq & 0xffffffffffff))
}

// Node returns the node that minted the ID.
func (t TraceID) Node() simnet.NodeID { return simnet.NodeID(uint16(t >> 48)) }

func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// SpanID identifies one span within a trace so children can reference
// their parent across RPC hops. Like TraceID, the minting node occupies
// the high 16 bits. Zero means "no span" (roots have Parent == 0).
type SpanID uint64

func newSpanID(node simnet.NodeID, seq uint64) SpanID {
	return SpanID(uint64(uint16(node))<<48 | (seq & 0xffffffffffff))
}

func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// Span is one step of a traced operation, stamped with simnet virtual
// time: StartV/EndV are fabric timestamps, so span durations reflect the
// modeled network, not wall-clock scheduling noise. ID and Parent link
// spans into a causal tree: Parent is the span that directly caused this
// one (zero for the root of an operation).
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Name   string // e.g. "client.read", "rpc.handle.alloc"
	Node   simnet.NodeID
	StartV simnet.VTime
	EndV   simnet.VTime
	Err    string // empty on success
}

// Duration returns the span's virtual-time extent.
func (s Span) Duration() time.Duration { return s.EndV.Sub(s.StartV) }

// traceCount tracks, per live trace, how many spans were ever recorded
// versus how many are still resident in the ring. The pair lets SpansFor
// tell a complete trace from one the wraparound has partially evicted.
type traceCount struct {
	total  int // spans ever recorded for this trace
	inRing int // spans currently resident
}

// Tracer collects spans into a fixed-size per-node ring buffer. Sampling
// is 1-in-N on new root traces: SetSampling(0) disables tracing entirely
// (the hot path cost is one atomic load), SetSampling(1) traces every op.
// Spans belonging to an already-sampled trace are always recorded, so a
// sampled operation is captured end to end across layers and nodes.
//
// A second, smaller "flight recorder" ring pins spans of operations that
// exceeded the slow-op threshold (or failed). Pinned spans are never
// overwritten by ordinary Record traffic, so the evidence for tail
// outliers survives main-ring wraparound.
type Tracer struct {
	node     simnet.NodeID
	sampling atomic.Int64 // 0 = off, N = 1-in-N roots
	seq      atomic.Uint64
	spanSeq  atomic.Uint64
	provSeq  atomic.Uint64
	slowNS   atomic.Int64 // flight-recorder threshold; 0 = disarmed

	mu     sync.Mutex
	ring   []Span
	next   int  // next write position
	full   bool // ring has wrapped
	counts map[TraceID]*traceCount

	flight     []Span
	flightNext int
	flightFull bool
}

func newTracer(node simnet.NodeID, capacity int) *Tracer {
	return &Tracer{
		node:   node,
		ring:   make([]Span, capacity),
		counts: make(map[TraceID]*traceCount),
		flight: make([]Span, defaultFlightRing),
	}
}

// SetSampling sets the root-trace sampling rate: 0 disables tracing, n>0
// samples one in every n new traces.
func (t *Tracer) SetSampling(n int) {
	if n < 0 {
		n = 0
	}
	t.sampling.Store(int64(n))
}

// NewTrace decides whether the operation starting now should be traced.
// It returns a fresh ID and true when sampled, zero and false otherwise.
func (t *Tracer) NewTrace() (TraceID, bool) {
	n := t.sampling.Load()
	if n == 0 {
		return 0, false
	}
	seq := t.seq.Add(1)
	if seq%uint64(n) != 0 {
		return 0, false
	}
	return newTraceID(t.node, seq), true
}

// NewSpan mints a span ID for a span starting on this node.
func (t *Tracer) NewSpan() SpanID {
	return newSpanID(t.node, t.spanSeq.Add(1))
}

// ProvisionalTrace mints a trace ID for an operation that is not sampled
// but may be promoted retroactively by the flight recorder. Provisional
// IDs live in a sequence space disjoint from sampled ones (bit 47 set) so
// the two minting paths never collide.
func (t *Tracer) ProvisionalTrace() TraceID {
	return newTraceID(t.node, 1<<47|t.provSeq.Add(1))
}

// SetSlowOpThreshold arms the flight recorder: operations whose modeled
// latency meets or exceeds d (or that fail) are retroactively promoted to
// traced and pinned. d <= 0 disarms.
func (t *Tracer) SetSlowOpThreshold(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.slowNS.Store(int64(d))
}

// SlowOpThreshold returns the armed threshold (0 = disarmed).
func (t *Tracer) SlowOpThreshold() time.Duration {
	return time.Duration(t.slowNS.Load())
}

// Armed reports whether the flight recorder is armed.
func (t *Tracer) Armed() bool { return t.slowNS.Load() > 0 }

// Record appends a span to the ring. Spans with a zero TraceID are
// dropped — callers can pass through unconditionally and let untraced
// operations fall out here.
func (t *Tracer) Record(s Span) {
	if s.Trace == 0 {
		return
	}
	if s.Node == 0 {
		s.Node = t.node
	}
	t.mu.Lock()
	if t.full {
		// The slot being overwritten evicts a span of some older trace;
		// account for it so SpansFor can detect the tear.
		old := t.ring[t.next].Trace
		if c, ok := t.counts[old]; ok {
			c.inRing--
			if c.inRing <= 0 {
				delete(t.counts, old)
			}
		}
	}
	t.ring[t.next] = s
	c := t.counts[s.Trace]
	if c == nil {
		c = &traceCount{}
		t.counts[s.Trace] = c
	}
	c.total++
	c.inRing++
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Pin copies spans into the flight-recorder ring, where ordinary Record
// traffic cannot evict them. Used by the slow-op promotion path; callers
// pass every span they buffered for the promoted operation.
func (t *Tracer) Pin(spans []Span) {
	t.mu.Lock()
	for _, s := range spans {
		if s.Trace == 0 {
			continue
		}
		if s.Node == 0 {
			s.Node = t.node
		}
		t.flight[t.flightNext] = s
		t.flightNext++
		if t.flightNext == len(t.flight) {
			t.flightNext = 0
			t.flightFull = true
		}
	}
	t.mu.Unlock()
}

// FlightSpans returns the pinned flight-recorder spans, oldest first.
func (t *Tracer) FlightSpans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ringCopy(t.flight, t.flightNext, t.flightFull)
}

// Spans returns the buffered spans, oldest first.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ringCopy(t.ring, t.next, t.full)
}

func ringCopy(ring []Span, next int, full bool) []Span {
	if !full {
		return append([]Span(nil), ring[:next]...)
	}
	out := make([]Span, 0, len(ring))
	out = append(out, ring[next:]...)
	out = append(out, ring[:next]...)
	return out
}

// SpansFor returns every buffered span of one trace — main ring and
// flight recorder merged, duplicates removed — ordered by virtual start
// time. The second result is false when ring wraparound has evicted some
// of the trace's spans, i.e. the returned set is known to be torn; it is
// never silently partial.
func (t *Tracer) SpansFor(id TraceID) ([]Span, bool) {
	if id == 0 {
		return nil, true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	complete := true
	if c, ok := t.counts[id]; ok {
		complete = c.total == c.inRing
		for _, s := range ringCopy(t.ring, t.next, t.full) {
			if s.Trace == id {
				out = append(out, s)
			}
		}
	}
	seen := make(map[SpanID]bool, len(out))
	for _, s := range out {
		if s.ID != 0 {
			seen[s.ID] = true
		}
	}
	for _, s := range ringCopy(t.flight, t.flightNext, t.flightFull) {
		if s.Trace != id || (s.ID != 0 && seen[s.ID]) {
			continue
		}
		if s.ID != 0 {
			seen[s.ID] = true
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartV < out[j].StartV })
	return out, complete
}

// Dump writes the buffered spans to w, grouped by trace and ordered by
// virtual start time within each trace.
func (t *Tracer) Dump(w io.Writer) error {
	return dumpSpans(w, t.Spans())
}

// DumpFlight writes the flight-recorder spans to w in the same format.
func (t *Tracer) DumpFlight(w io.Writer) error {
	return dumpSpans(w, t.FlightSpans())
}

func dumpSpans(w io.Writer, spans []Span) error {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Trace != spans[j].Trace {
			return spans[i].Trace < spans[j].Trace
		}
		return spans[i].StartV < spans[j].StartV
	})
	var last TraceID
	for i, s := range spans {
		if i == 0 || s.Trace != last {
			if _, err := fmt.Fprintf(w, "trace %s\n", s.Trace); err != nil {
				return err
			}
			last = s.Trace
		}
		status := ""
		if s.Err != "" {
			status = "  err=" + s.Err
		}
		if _, err := fmt.Fprintf(w, "  %-24s node=%d  start=%s  dur=%s%s\n",
			s.Name, s.Node, s.StartV, s.Duration(), status); err != nil {
			return err
		}
	}
	return nil
}

// traceKey is the context key for trace propagation.
type traceKey struct{}

// spanKey is the context key for the current span (parent of any span the
// callee starts).
type spanKey struct{}

// WithTrace attaches a trace ID to ctx. Attaching zero returns ctx
// unchanged.
func WithTrace(ctx context.Context, id TraceID) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceFrom extracts the trace ID from ctx (zero when untraced).
func TraceFrom(ctx context.Context) TraceID {
	id, _ := ctx.Value(traceKey{}).(TraceID)
	return id
}

// WithSpan attaches a trace ID and the current span to ctx, so spans the
// callee starts can point at their parent. A zero trace returns ctx
// unchanged.
func WithSpan(ctx context.Context, id TraceID, span SpanID) context.Context {
	if id == 0 {
		return ctx
	}
	ctx = context.WithValue(ctx, traceKey{}, id)
	if span != 0 {
		ctx = context.WithValue(ctx, spanKey{}, span)
	}
	return ctx
}

// SpanFrom extracts the current span ID from ctx (zero when absent).
func SpanFrom(ctx context.Context) SpanID {
	id, _ := ctx.Value(spanKey{}).(SpanID)
	return id
}
