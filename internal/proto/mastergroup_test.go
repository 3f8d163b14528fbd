package proto

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rstore/internal/rdma"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
)

// How one scripted master replica behaves.
const (
	down     = iota // off the fabric: the dial is refused
	primary         // serves
	refusing        // primary that answers with a business error
	dying           // accepts the dial, never answers: dies mid-call
	standby         // redirects to hint
	stalled         // the dial itself hangs until the pass's ctx expires
)

// role packs a replica's behaviour and, for a standby, its redirect hint
// into one script value: kind + hintBase*(hint+1).
func role(kind int, hint simnet.NodeID) int64 { return int64(kind) + hintBase*int64(hint+1) }

const hintBase = 100

// scriptedGroup is a master group whose replicas answer from a script: real
// RPC servers on a small fabric, so the locator dials, calls and closes real
// connections. The caller sits on the last node.
type scriptedGroup struct {
	dev    *rdma.Device
	script []atomic.Int64 // per node: role(kind, hint)
	opts   rpc.Options

	mu    sync.Mutex
	dials []simnet.NodeID // every dial the locator asked for, in order
}

const errBusiness = "master: region not found"

func newScriptedGroup(t *testing.T, replicas int) *scriptedGroup {
	t.Helper()
	f := simnet.NewFabric(replicas+1, simnet.DefaultParams())
	net := rdma.NewNetwork(f)
	s := &scriptedGroup{
		script: make([]atomic.Int64, replicas),
		// Small buffers, and a short per-call deadline: it is what turns a
		// replica that never answers into a transport failure.
		opts: rpc.Options{BufSize: 1 << 10, Credits: 2, CallTimeout: 40 * time.Millisecond},
	}
	for n := 0; n < replicas; n++ {
		node := simnet.NodeID(n)
		dev, err := net.OpenDevice(node)
		if err != nil {
			t.Fatalf("OpenDevice(%d): %v", n, err)
		}
		srv, err := rpc.NewServer(dev, MasterService, nil, s.opts)
		if err != nil {
			t.Fatalf("NewServer(%d): %v", n, err)
		}
		answer := func(ctx context.Context, _ simnet.NodeID, _ *rpc.Decoder) (*rpc.Encoder, error) {
			kind, hint := s.role(node)
			switch kind {
			case primary:
				return &rpc.Encoder{}, nil
			case refusing:
				return nil, errors.New(errBusiness)
			case standby:
				return nil, NotPrimaryError(hint, 7)
			default: // dying, or a connection from before the node went down
				<-ctx.Done()
				return nil, ctx.Err()
			}
		}
		for _, mt := range []uint16{MtClusterInfo, MtHeartbeat, MtRegisterServer} {
			srv.Handle(mt, answer)
		}
		srv.Serve()
		t.Cleanup(srv.Close)
	}
	var err error
	if s.dev, err = net.OpenDevice(simnet.NodeID(replicas)); err != nil {
		t.Fatalf("OpenDevice(caller): %v", err)
	}
	return s
}

func (s *scriptedGroup) role(node simnet.NodeID) (kind int, hint simnet.NodeID) {
	v := s.script[node].Load()
	return int(v % hintBase), simnet.NodeID(v/hintBase - 1)
}

func (s *scriptedGroup) set(roles ...int64) {
	for n, r := range roles {
		s.script[n].Store(r)
	}
}

// dial is the locator's dial hook: it records the order.
func (s *scriptedGroup) dial(ctx context.Context, node simnet.NodeID) (*rpc.Conn, error) {
	s.mu.Lock()
	s.dials = append(s.dials, node)
	s.mu.Unlock()
	switch kind, _ := s.role(node); kind {
	case down:
		return nil, fmt.Errorf("dial %v: %w", node, simnet.ErrNodeDown)
	case stalled:
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return rpc.Dial(ctx, s.dev, node, MasterService, nil, s.opts)
}

func (s *scriptedGroup) takeDials() []simnet.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.dials
	s.dials = nil
	return d
}

// The two shapes of callback the locator serves: the client's one control
// RPC, and the memory server's heartbeat (its registration is the same
// shape on another message type).
var callbacks = map[string]func(context.Context, *rpc.Conn) error{
	"client": func(ctx context.Context, conn *rpc.Conn) error {
		_, _, err := conn.Call(ctx, MtClusterInfo, nil)
		return err
	},
	"memserver": func(ctx context.Context, conn *rpc.Conn) error {
		_, _, err := conn.Call(ctx, MtHeartbeat, nil)
		return err
	},
}

func nodes(ids ...simnet.NodeID) []simnet.NodeID { return ids }

var outcomeNames = map[Outcome]string{Served: "served", NoPrimary: "no primary", Unreachable: "unreachable", Inconclusive: "inconclusive"}

// TestMasterGroupPass drives one pass (or a warm-up pass and then one more)
// over every shape of group the failover path meets, and pins the dial
// order, that no node is dialled twice in a pass, the outcome class and
// where the preference ends up.
func TestMasterGroupPass(t *testing.T) {
	none := simnet.NodeID(-1)
	cases := []struct {
		name       string
		configured int     // the group is nodes 0..configured-1; later nodes exist but are not configured
		warm       []int64 // script of a first pass that leaves a current connection, if any
		script     []int64
		wantDials  []simnet.NodeID
		want       Outcome
		wantPref   simnet.NodeID
		business   bool          // the pass must serve the primary's business error
		budget     time.Duration // the pass's own deadline, if it has one
	}{
		{name: "primary", configured: 3,
			script:    []int64{role(primary, none), role(standby, 0), role(standby, 0)},
			wantDials: nodes(0), want: Served, wantPref: 0},
		{name: "business error is served", configured: 2,
			script:    []int64{role(refusing, none), role(standby, 0)},
			wantDials: nodes(0), want: Served, wantPref: 0, business: true},
		{name: "replica down", configured: 3,
			script:    []int64{role(down, none), role(primary, none), role(standby, 1)},
			wantDials: nodes(0, 1), want: Served, wantPref: 1},
		{name: "standby with hint", configured: 3,
			script:    []int64{role(standby, 2), role(standby, 2), role(primary, none)},
			wantDials: nodes(0, 1, 2), want: Served, wantPref: 2},
		{name: "standby with hint -1 rotates", configured: 2,
			script:    []int64{role(standby, none), role(down, none)},
			wantDials: nodes(0, 1), want: NoPrimary, wantPref: 1},
		{name: "hint outside the configured list", configured: 2,
			script:    []int64{role(standby, 2), role(down, none), role(primary, none)},
			wantDials: nodes(0, 1, 2), want: Served, wantPref: 2},
		{name: "primary dies mid-call, successor serves", configured: 2,
			script:    []int64{role(dying, none), role(primary, none)},
			wantDials: nodes(0, 1), want: Served, wantPref: 1},
		{name: "primary dies mid-call, standby still points at it", configured: 2,
			script:    []int64{role(dying, none), role(standby, 0)},
			wantDials: nodes(0, 1), want: NoPrimary, wantPref: 0},
		{name: "all standbys", configured: 3,
			script:    []int64{role(standby, 1), role(standby, 2), role(standby, 0)},
			wantDials: nodes(0, 1, 2), want: NoPrimary, wantPref: 0},
		{name: "all down", configured: 2,
			script:    []int64{role(down, none), role(down, none)},
			wantDials: nodes(0, 1), want: Unreachable, wantPref: 0},
		{name: "stalled dial", configured: 2,
			script:    []int64{role(stalled, none), role(primary, none)},
			wantDials: nodes(0), want: Inconclusive, wantPref: 0, budget: 50 * time.Millisecond},

		{name: "current connection serves without a dial", configured: 2,
			warm:      []int64{role(primary, none), role(standby, 0)},
			script:    []int64{role(primary, none), role(standby, 0)},
			wantDials: nil, want: Served, wantPref: 0},
		{name: "current connection redirects: not dialled again", configured: 3,
			warm:      []int64{role(primary, none), role(standby, 0), role(standby, 0)},
			script:    []int64{role(standby, 2), role(standby, 2), role(primary, none)},
			wantDials: nodes(2), want: Served, wantPref: 2},
		{name: "current connection dies: its node is dialled once", configured: 2,
			warm:      []int64{role(primary, none), role(standby, 0)},
			script:    []int64{role(dying, none), role(standby, 0)},
			wantDials: nodes(0, 1), want: NoPrimary, wantPref: 0},
		{name: "current connection dies, every dial refused", configured: 2,
			warm:      []int64{role(primary, none), role(down, none)},
			script:    []int64{role(down, none), role(down, none)},
			wantDials: nodes(0, 1), want: Unreachable, wantPref: 0},
	}
	for shape, call := range callbacks {
		for _, tc := range cases {
			t.Run(shape+"/"+tc.name, func(t *testing.T) {
				s := newScriptedGroup(t, len(tc.script))
				ids := make([]simnet.NodeID, tc.configured)
				for i := range ids {
					ids[i] = simnet.NodeID(i)
				}
				g := NewMasterGroup(ids, s.dial)
				defer g.Close()
				if tc.warm != nil {
					s.set(tc.warm...)
					if out, err := g.Do(context.Background(), call); out != Served || err != nil {
						t.Fatalf("warm-up pass = %v, %v", out, err)
					}
					s.takeDials()
				}
				s.set(tc.script...)

				// Without a deadline of its own a call is bounded by the
				// connection's CallTimeout, the pass by nothing.
				ctx := context.Background()
				if tc.budget > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, tc.budget)
					defer cancel()
				}
				out, err := g.Do(ctx, call)
				dials := s.takeDials()
				if out != tc.want {
					t.Errorf("outcome = %s (%v), want %s", outcomeNames[out], err, outcomeNames[tc.want])
				}
				if !reflect.DeepEqual(dials, tc.wantDials) {
					t.Errorf("dial order = %v, want %v", dials, tc.wantDials)
				}
				seen := map[simnet.NodeID]bool{}
				for _, n := range dials {
					if seen[n] {
						t.Errorf("node %v dialled twice in one pass: %v", n, dials)
					}
					seen[n] = true
				}
				if got := g.Preferred(); got != tc.wantPref {
					t.Errorf("preference = %v, want %v", got, tc.wantPref)
				}
				var re *rpc.RemoteError
				switch {
				case tc.business:
					if !errors.As(err, &re) || re.Msg != errBusiness {
						t.Errorf("err = %v, want the primary's business error", err)
					}
				case (out == Served) != (err == nil):
					t.Errorf("outcome %v with err %v", out, err)
				case out == Inconclusive && !errors.Is(err, context.DeadlineExceeded):
					t.Errorf("inconclusive pass returned %v, want the ctx error", err)
				}
				if out != Served {
					return
				}
				// Whoever served is the current connection now: the next
				// pass needs no dial.
				if out, _ := g.Do(context.Background(), call); out != Served {
					t.Errorf("pass after a served one = %v", out)
				}
				if d := s.takeDials(); len(d) != 0 {
					t.Errorf("pass after a served one dialled %v", d)
				}
			})
		}
	}
}

// TestMasterGroupProbeAndClose: Probe dials the one node it is asked about
// and keeps nothing; a closed group ends every pass Inconclusive.
func TestMasterGroupProbeAndClose(t *testing.T) {
	s := newScriptedGroup(t, 2)
	s.set(role(down, -1), role(primary, -1))
	g := NewMasterGroup(nodes(0, 1), s.dial)
	if _, err := g.Probe(context.Background(), 0); !errors.Is(err, simnet.ErrNodeDown) {
		t.Errorf("Probe(down) = %v, want the dial error", err)
	}
	// The scripted replicas do not speak MtMasterStatus; what matters is
	// that the probe reached node 1 and only node 1.
	var re *rpc.RemoteError
	if _, err := g.Probe(context.Background(), 1); !errors.As(err, &re) {
		t.Errorf("Probe(up) = %v, want the replica's answer", err)
	}
	if d := s.takeDials(); !reflect.DeepEqual(d, nodes(0, 1)) {
		t.Errorf("probe dials = %v, want [0 1]", d)
	}
	g.Close()
	if out, err := g.Do(context.Background(), callbacks["client"]); out != Inconclusive || !errors.Is(err, rdma.ErrCacheClosed) {
		t.Errorf("Do on a closed group = %v, %v", out, err)
	}
}
