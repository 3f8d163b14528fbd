package proto

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"rstore/internal/rdma"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
)

// The control plane's client half: the fencing error a master replica that
// is not the primary returns, and MasterGroup, the one place that follows
// it — the client's control calls and the memory servers' heartbeats and
// registrations all find the primary through MasterGroup.Do.

// notPrimaryPrefix is the marker MasterGroup greps for in remote errors to
// tell "wrong master replica" from genuine request failures.
const notPrimaryPrefix = "master: not primary"

// NotPrimaryError builds the fencing error a non-primary master replica
// returns to client-facing RPCs. The believed primary and epoch ride along
// as a redirect hint (primary -1 = unknown).
func NotPrimaryError(primary simnet.NodeID, epoch uint64) error {
	return fmt.Errorf("%s (primary=%d epoch=%d)", notPrimaryPrefix, int64(primary), epoch)
}

// IsNotPrimaryMsg reports whether a remote error message is the fencing
// error, and if so extracts the redirect hint. ok is true whenever the
// marker is present, even if the hint fails to parse (primary then -1).
func IsNotPrimaryMsg(msg string) (primary simnet.NodeID, epoch uint64, ok bool) {
	i := strings.Index(msg, notPrimaryPrefix)
	if i < 0 {
		return -1, 0, false
	}
	var p, ep int64
	if _, err := fmt.Sscanf(msg[i:], notPrimaryPrefix+" (primary=%d epoch=%d)", &p, &ep); err != nil {
		return -1, 0, true
	}
	return simnet.NodeID(p), uint64(ep), true
}

// Outcome is how one pass over the master group ended.
type Outcome int

const (
	// Served: a replica answered as the primary. Do returns the callback's
	// own result, a business error (a remote error that is no redirect)
	// included.
	Served Outcome = iota + 1
	// NoPrimary: some replica was reachable, but every one of them
	// redirected or failed mid-call — the group is between primaries.
	NoPrimary
	// Unreachable: no replica accepted a dial. The fault may as well be the
	// caller's own link.
	Unreachable
	// Inconclusive: the pass's ctx expired (or the group was closed) first.
	// It says nothing about the group or the caller.
	Inconclusive
)

// MasterGroup finds the master replication group's primary on behalf of one
// caller and keeps the connection to it. It is safe for concurrent use.
type MasterGroup struct {
	nodes []simnet.NodeID
	dial  func(context.Context, simnet.NodeID) (*rpc.Conn, error)
	// current holds the connection that last served, under its one key.
	current *rdma.Cache[struct{}, *rpc.Conn]
	// preferred is the replica believed to be the primary: the one that
	// last served, or the one the last redirect pointed at.
	preferred atomic.Int32
}

// NewMasterGroup returns a locator over the configured replicas (at least
// one), preferring the first. Every connection it opens comes from dial —
// the caller's hook for cost accounting and counters.
func NewMasterGroup(nodes []simnet.NodeID, dial func(context.Context, simnet.NodeID) (*rpc.Conn, error)) *MasterGroup {
	g := &MasterGroup{nodes: nodes, dial: dial, current: rpc.NewConnCache[struct{}]()}
	g.preferred.Store(int32(nodes[0]))
	return g
}

// Preferred returns the replica the next pass dials first.
func (g *MasterGroup) Preferred() simnet.NodeID { return simnet.NodeID(g.preferred.Load()) }

// Close closes the current connection; later passes end Inconclusive.
func (g *MasterGroup) Close() { g.current.CloseAll() }

// Do runs one pass: fn is tried on the current connection, then on a fresh
// connection to the preferred replica, to each configured replica in order,
// and to every redirect hint not yet tried — each node dialled at most
// once — until a replica serves it. fn must return the RPC's error as it
// came back: nil and business errors end the pass as Served, a not-primary
// redirect re-homes the preference (to the hint, or with no usable hint to
// the replica the pass dials next) and moves on, and a transport failure
// retires that connection and moves on. A steady-state call costs
// one cache lookup on top of fn. Unless the outcome is Served the error is
// non-nil.
func (g *MasterGroup) Do(ctx context.Context, fn func(context.Context, *rpc.Conn) error) (Outcome, error) {
	p := pass{g: g}
	walk := func(ctx context.Context, _ struct{}) (*rpc.Conn, error) { return p.walk(ctx, fn) }
	for {
		conn, err := g.current.Get(ctx, struct{}{}, walk)
		if p.walked {
			return p.outcome(ctx)
		}
		if err != nil {
			return Inconclusive, err // the group is closed
		}
		node := conn.QP().RemoteNode()
		served, answered := p.try(ctx, node, conn, fn)
		if served || ctx.Err() != nil {
			return p.outcome(ctx)
		}
		if answered {
			p.tried = append(p.tried, node) // it redirected: not worth a dial
		}
		g.current.Drop(struct{}{}, conn)
	}
}

// Probe asks one replica for its replication status over a throwaway
// connection. Unlike the primary-fenced RPCs, every role answers it.
func (g *MasterGroup) Probe(ctx context.Context, node simnet.NodeID) (MasterStatus, error) {
	conn, err := g.dial(ctx, node)
	if err != nil {
		return MasterStatus{}, err
	}
	defer conn.Close()
	resp, _, err := conn.Call(ctx, MtMasterStatus, nil)
	if err != nil {
		return MasterStatus{}, err
	}
	d := rpc.NewDecoder(resp)
	st := DecodeMasterStatus(d)
	return st, d.Err()
}

// pass is the state of one Do.
type pass struct {
	g *MasterGroup

	walked  bool            // the current connection is gone; walk ran
	served  bool            // fn reached the primary; err is its result
	reached bool            // some replica accepted a dial or answered
	rotate  bool            // the last redirect had no usable hint: prefer whoever is dialled next
	tried   []simnet.NodeID // replicas that redirected or were dialled
	cands   []simnet.NodeID // replicas to dial, in order; hints join at the end
	err     error           // fn's result once served, else the last failure
}

// try runs fn against one replica: answered reports that the replica
// responded at all (a transport failure says nothing about its role),
// served that it did so as the primary.
func (p *pass) try(ctx context.Context, node simnet.NodeID, conn *rpc.Conn, fn func(context.Context, *rpc.Conn) error) (served, answered bool) {
	if p.err = fn(ctx, conn); p.err != nil {
		var re *rpc.RemoteError
		if !errors.As(p.err, &re) {
			return false, false
		}
		if hint, _, redirected := IsNotPrimaryMsg(re.Msg); redirected {
			p.reached = true
			if p.rotate = hint < 0; !p.rotate {
				p.cands = append(p.cands, hint)
				p.g.preferred.Store(int32(hint))
			}
			return false, true
		}
	}
	p.reached, p.served = true, true
	p.g.preferred.Store(int32(node))
	return true, true
}

// walk is the pass beyond the current connection, run as the cache's dial:
// the connection it returns is the one that served, and becomes current.
func (p *pass) walk(ctx context.Context, fn func(context.Context, *rpc.Conn) error) (*rpc.Conn, error) {
	p.walked = true
	p.cands = append(append([]simnet.NodeID{p.g.Preferred()}, p.g.nodes...), p.cands...)
	for i := 0; i < len(p.cands) && ctx.Err() == nil; i++ {
		node := p.cands[i]
		if slices.Contains(p.tried, node) {
			continue
		}
		p.tried = append(p.tried, node)
		if p.rotate {
			p.g.preferred.Store(int32(node))
			p.rotate = false
		}
		conn, err := p.g.dial(ctx, node)
		if err != nil {
			p.err = err
			continue
		}
		p.reached = true
		if served, _ := p.try(ctx, node, conn, fn); served {
			return conn, nil
		}
		conn.Close()
	}
	_, err := p.outcome(ctx)
	return nil, err
}

// outcome classifies the finished pass.
func (p *pass) outcome(ctx context.Context) (Outcome, error) {
	switch {
	case p.served:
		return Served, p.err
	case ctx.Err() != nil:
		if p.err == nil {
			return Inconclusive, ctx.Err()
		}
		return Inconclusive, fmt.Errorf("%w: after %v", ctx.Err(), p.err)
	case p.reached:
		return NoPrimary, p.err
	default:
		return Unreachable, p.err
	}
}
