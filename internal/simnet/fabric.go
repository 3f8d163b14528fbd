package simnet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NodeID identifies a machine in the simulated cluster.
type NodeID int32

// String renders the node id as "n<id>".
func (id NodeID) String() string { return fmt.Sprintf("n%d", id) }

// Errors reported by the fabric.
var (
	ErrNodeDown      = errors.New("simnet: node is down")
	ErrPartitioned   = errors.New("simnet: nodes are partitioned")
	ErrUnknownNode   = errors.New("simnet: unknown node")
	ErrNegativeBytes = errors.New("simnet: negative transfer size")
	// ErrDropped reports a transfer lost to transient fault injection. It is
	// the one retryable fabric error: the layers above model RC-style
	// retransmission against it, whereas ErrNodeDown/ErrPartitioned persist
	// until the failure is healed.
	ErrDropped = errors.New("simnet: transfer dropped (transient)")
)

// Injector observes and perturbs fabric traffic. Implementations must be
// safe for concurrent use; the Chaos controller is the canonical one.
type Injector interface {
	// Transfer is consulted before a transfer occupies any line. A non-nil
	// error fails the transfer (ErrDropped for transient losses); a positive
	// extra delays its start (latency spike).
	Transfer(from, to NodeID, n int, start VTime) (extra time.Duration, err error)
	// Advance observes the fabric-wide virtual frontier moving to v, giving
	// scripted fault timelines a clock to fire against.
	Advance(v VTime)
}

// maxGaps bounds the free-gap list a line remembers. Once the list holds
// this many gaps a newly opened gap is not recorded (its idle time is
// conservatively treated as busy). Remembered gaps are never evicted: one
// leaves only when a reservation fills it exactly, and a reservation that
// lands in the middle of one still splits it in two, bound or no bound.
const maxGaps = 4096

// gap is a free interval [from, to) behind a line's frontier.
type gap struct {
	from, to VTime
}

// line is one direction of a node's link to the switch. The line is a
// work-conserving unit-capacity resource: a reservation takes the earliest
// free interval at or after its start time — either a remembered gap
// behind the frontier or the frontier itself. Remembering gaps matters: an
// actor whose chained start lands mid-round must not permanently waste the
// idle capacity before it, or balanced all-to-all traffic degrades
// round-over-round.
type line struct {
	mu       sync.Mutex
	nextFree VTime
	gaps     []gap // sorted by from, disjoint, all before nextFree
	busy     VTime // total occupied virtual time
	bytes    int64 // total bytes serialized
	ops      int64
	dropped  int64 // idle intervals not remembered because gaps was full
}

// reserve books the line for ser starting at or after start, accounts n
// payload bytes to it, and returns the interval actually occupied.
func (l *line) reserve(start, ser VTime, n int) (from, to VTime) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.busy += ser
	l.bytes += int64(n)
	l.ops++
	// First fit into a remembered gap. The list is sorted and disjoint, so
	// no gap that ends before start can fit and binary search skips them all
	// (one ending exactly at start still takes a zero-length reservation).
	// In steady state start sits near the frontier and almost nothing is
	// left to walk.
	first := sort.Search(len(l.gaps), func(i int) bool { return l.gaps[i].to >= start })
	for i := first; i < len(l.gaps); i++ {
		g := l.gaps[i]
		s := maxV(g.from, start)
		if s+ser <= g.to {
			switch {
			case s == g.from && s+ser == g.to:
				l.gaps = append(l.gaps[:i], l.gaps[i+1:]...)
			case s == g.from:
				l.gaps[i].from = s + ser
			case s+ser == g.to:
				l.gaps[i].to = s
			default:
				l.gaps = append(l.gaps, gap{})
				copy(l.gaps[i+2:], l.gaps[i+1:])
				l.gaps[i] = gap{g.from, s}
				l.gaps[i+1] = gap{s + ser, g.to}
			}
			return s, s + ser
		}
	}
	from = maxV(start, l.nextFree)
	if from > l.nextFree {
		if len(l.gaps) < maxGaps {
			l.gaps = append(l.gaps, gap{l.nextFree, from})
		} else {
			l.dropped++
		}
	}
	to = from + ser
	l.nextFree = to
	return from, to
}

// stats snapshots the line's accounting.
func (l *line) stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LinkStats{Bytes: l.bytes, Busy: l.busy, Ops: l.ops, HighWater: l.nextFree,
		Gaps: len(l.gaps), GapsDropped: l.dropped}
}

// node is the fabric's view of a machine: link state plus liveness.
type node struct {
	id      NodeID
	name    string
	egress  line
	ingress line
	up      bool // guarded by Fabric.mu
}

// Fabric is a simulated cluster: a set of nodes joined through one switch.
// The zero value is not usable; construct with NewFabric.
type Fabric struct {
	params Params

	// vnow is the fabric-wide virtual-time frontier: the latest completion
	// of any reservation. Actors that were idle rejoin the timeline here
	// instead of queueing behind history they did not contend with.
	vnow atomic.Int64

	// injector is the optional fault injector (nil when absent).
	injector atomic.Pointer[injectorSlot]

	mu         sync.Mutex
	nodes      []*node
	partitions map[[2]NodeID]bool
}

// injectorSlot wraps the interface so it fits an atomic.Pointer.
type injectorSlot struct{ inj Injector }

// SetInjector installs (or, with nil, removes) the fabric's fault injector.
func (f *Fabric) SetInjector(inj Injector) {
	if inj == nil {
		f.injector.Store(nil)
		return
	}
	f.injector.Store(&injectorSlot{inj: inj})
}

// VNow returns the fabric-wide virtual-time frontier.
func (f *Fabric) VNow() VTime { return VTime(f.vnow.Load()) }

// WaitUntil models an actor sitting out a timer: virtual time is the
// simulation's only clock, so a node that must let a duration elapse
// (a lease term, a quarantine) contributes that wait to the frontier
// exactly as a transfer of equal duration would. Idle actors rejoin the
// timeline at the lifted frontier; a frontier already past v is a no-op
// (the wait had, in virtual terms, already happened).
func (f *Fabric) WaitUntil(v VTime) { f.advanceVNow(v) }

// advanceVNow lifts the frontier to at least v.
func (f *Fabric) advanceVNow(v VTime) {
	for {
		cur := f.vnow.Load()
		if int64(v) <= cur {
			return
		}
		if f.vnow.CompareAndSwap(cur, int64(v)) {
			if slot := f.injector.Load(); slot != nil {
				slot.inj.Advance(v)
			}
			return
		}
	}
}

// NewFabric creates a fabric with n nodes, all up, no partitions.
func NewFabric(n int, params Params) *Fabric {
	f := &Fabric{
		params:     params,
		partitions: make(map[[2]NodeID]bool),
	}
	for i := 0; i < n; i++ {
		f.nodes = append(f.nodes, &node{
			id:   NodeID(i),
			name: NodeID(i).String(),
			up:   true,
		})
	}
	return f
}

// Params returns the fabric's cost-model constants.
func (f *Fabric) Params() Params { return f.params }

// Size returns the number of nodes, up or down.
func (f *Fabric) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.nodes)
}

// AddNode grows the cluster by one node and returns its id.
func (f *Fabric) AddNode() NodeID {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := NodeID(len(f.nodes))
	f.nodes = append(f.nodes, &node{id: id, name: id.String(), up: true})
	return id
}

// nodeLocked looks a node up; the caller holds f.mu.
func (f *Fabric) nodeLocked(id NodeID) (*node, error) {
	if id < 0 || int(id) >= len(f.nodes) {
		return nil, fmt.Errorf("%w: %v", ErrUnknownNode, id)
	}
	return f.nodes[id], nil
}

// SetNodeUp marks a node alive or dead. Transfers involving a dead node
// fail with ErrNodeDown.
func (f *Fabric) SetNodeUp(id NodeID, up bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.nodeLocked(id)
	if err != nil {
		return err
	}
	n.up = up
	return nil
}

// NodeUp reports whether the node is alive.
func (f *Fabric) NodeUp(id NodeID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.nodeLocked(id)
	return err == nil && n.up
}

func pairKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// SetPartition blocks (or unblocks) all traffic between a and b.
func (f *Fabric) SetPartition(a, b NodeID, partitioned bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if partitioned {
		f.partitions[pairKey(a, b)] = true
	} else {
		delete(f.partitions, pairKey(a, b))
	}
}

// Reachable reports whether from can currently exchange traffic with to.
func (f *Fabric) Reachable(from, to NodeID) error {
	_, _, err := f.endpoints(from, to)
	return err
}

// endpoints resolves both ends of a transfer and checks that they can
// exchange traffic, all under one acquisition of f.mu: liveness and
// partitions change under the same lock, so a SetNodeUp, SetPartition or
// AddNode that has returned is seen by every later transfer.
func (f *Fabric) endpoints(from, to NodeID) (src, dst *node, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if src, err = f.nodeLocked(from); err != nil {
		return nil, nil, err
	}
	if dst, err = f.nodeLocked(to); err != nil {
		return nil, nil, err
	}
	switch {
	case !src.up:
		return nil, nil, fmt.Errorf("%w: %v", ErrNodeDown, from)
	case !dst.up:
		return nil, nil, fmt.Errorf("%w: %v", ErrNodeDown, to)
	case from != to && f.partitions[pairKey(from, to)]:
		return nil, nil, fmt.Errorf("%w: %v<->%v", ErrPartitioned, from, to)
	}
	return src, dst, nil
}

// Transfer accounts a transfer of n payload bytes from one node to another,
// beginning no earlier than virtual time start, and returns the virtual
// completion time. The sender's egress line and receiver's ingress line are
// both reserved FIFO, so concurrent transfers sharing a line queue behind
// each other. Loopback transfers bypass the fabric.
func (f *Fabric) Transfer(from, to NodeID, n int, start VTime) (VTime, error) {
	if n < 0 {
		return 0, ErrNegativeBytes
	}
	src, dst, err := f.endpoints(from, to)
	if err != nil {
		return 0, err
	}
	if slot := f.injector.Load(); slot != nil {
		extra, err := slot.inj.Transfer(from, to, n, start)
		if err != nil {
			return 0, err
		}
		start = start.Add(extra)
	}
	if from == to {
		// Local DMA: charged at memory bandwidth, no link occupancy.
		return start.Add(f.params.LoopbackDelay + f.params.MemCopyTime(n)), nil
	}
	// The flow occupies links one segment at a time, so concurrent flows
	// interleave (fluid sharing) instead of blocking behind whole
	// messages. Cut-through switch: a segment starts occupying the ingress
	// a propagation delay after it starts serializing at the egress.
	seg := f.params.segment()
	prop := VTime(f.params.PropDelay)
	var done VTime
	cursor := start
	for off := 0; off < n || off == 0; off += seg {
		m := n - off
		if m > seg {
			m = seg
		}
		ser := VTime(f.params.SerializationTime(m))
		egFrom, _ := src.egress.reserve(cursor, ser, m)
		_, inDone := dst.ingress.reserve(egFrom+prop, ser, m)
		// The next segment cannot start serializing before this one did
		// (in-order flow), but may interleave with other flows' segments.
		// Gap-filling can place a later segment into an earlier free slot,
		// so the flow completes at the latest segment end, not the last.
		cursor = egFrom
		done = maxV(done, inDone)
		if n == 0 {
			break
		}
	}
	f.advanceVNow(done)
	return done, nil
}

// LinkStats is a snapshot of one line's accounting.
type LinkStats struct {
	Bytes int64
	Busy  VTime
	Ops   int64
	// HighWater is the latest virtual time at which the line was reserved.
	HighWater VTime
	// Gaps is the number of free intervals behind HighWater the line
	// remembers right now (past maxGaps only through mid-gap splits).
	Gaps int
	// GapsDropped counts idle intervals the line did not remember because
	// its list was full: capacity the model treated as busy.
	GapsDropped int64
}

// NodeStats reports both directions of a node's link.
type NodeStats struct {
	Node    NodeID
	Egress  LinkStats
	Ingress LinkStats
}

// Stats returns a snapshot for every node.
func (f *Fabric) Stats() []NodeStats {
	nodes := f.allNodes()
	out := make([]NodeStats, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, NodeStats{Node: n.id, Egress: n.egress.stats(), Ingress: n.ingress.stats()})
	}
	return out
}

// ResetStats zeroes the per-line accounting (but not nextFree or the gap
// list, which are part of the virtual timeline).
func (f *Fabric) ResetStats() {
	for _, n := range f.allNodes() {
		for _, l := range []*line{&n.egress, &n.ingress} {
			l.mu.Lock()
			l.bytes, l.busy, l.ops, l.dropped = 0, 0, 0, 0
			l.mu.Unlock()
		}
	}
}

// allNodes copies the node table so lines can be visited without f.mu.
func (f *Fabric) allNodes() []*node {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*node(nil), f.nodes...)
}
