package client

import (
	"context"
	"errors"
	"testing"
	"time"

	"rstore/internal/proto"
	"rstore/internal/rdma"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
)

func TestControlStatsArithmetic(t *testing.T) {
	a := ControlStats{RPCTime: 10, ConnectTime: 20, RegisterTime: 30, RPCs: 1, Connects: 2, Registers: 3}
	b := ControlStats{RPCTime: 4, ConnectTime: 5, RegisterTime: 6, RPCs: 1, Connects: 1, Registers: 1}
	d := a.Sub(b)
	if d.RPCTime != 6 || d.ConnectTime != 15 || d.RegisterTime != 24 {
		t.Errorf("Sub = %+v", d)
	}
	if d.RPCs != 0 || d.Connects != 1 || d.Registers != 2 {
		t.Errorf("Sub counters = %+v", d)
	}
	if got := a.Total(); got != 60 {
		t.Errorf("Total = %v", got)
	}
}

func TestMapMasterError(t *testing.T) {
	tests := []struct {
		name string
		in   error
		want error
	}{
		{"exists", &rpc.RemoteError{Msg: "master: region already exists: \"x\""}, ErrRegionExists},
		{"not found", &rpc.RemoteError{Msg: "master: region not found: \"x\""}, ErrRegionNotFound},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := mapMasterError(tt.in); !errors.Is(got, tt.want) {
				t.Errorf("mapMasterError = %v, want %v", got, tt.want)
			}
		})
	}
	// Non-remote errors pass through.
	plain := errors.New("plain")
	if got := mapMasterError(plain); got != plain {
		t.Errorf("plain error = %v", got)
	}
	// Unknown remote errors stay remote.
	other := &rpc.RemoteError{Msg: "something else"}
	var re *rpc.RemoteError
	if got := mapMasterError(other); !errors.As(got, &re) {
		t.Errorf("other = %v", got)
	}
}

// newTestOp arms a bare future over copies with the given fragment counts,
// numbered like the master numbers them (0 is the primary).
func newTestOp(startV simnet.VTime, clock *atomicVTime, fragsPerCopy ...int) *ioOp {
	copies := make([]opCopy, len(fragsPerCopy))
	for i, n := range fragsPerCopy {
		copies[i] = opCopy{idx: i, frags: make([]proto.Fragment, n)}
	}
	if clock == nil {
		clock = new(atomicVTime)
	}
	op := &ioOp{}
	op.init(opWrite, copies, startV, clock)
	return op
}

func isDone(op *ioOp) bool {
	select {
	case <-op.done:
		return true
	default:
		return false
	}
}

func TestIOOpCompletion(t *testing.T) {
	var clock atomicVTime
	op := newTestOp(100, &clock, 2)
	op.completeOne(rdma.WC{Status: rdma.StatusSuccess, PostedV: 100, DoneV: 200}, 1, 0)
	if isDone(op) {
		t.Fatal("done before all fragments")
	}
	op.completeOne(rdma.WC{Status: rdma.StatusSuccess, PostedV: 150, DoneV: 300}, 1, 0)
	if !isDone(op) {
		t.Fatal("not done after all fragments")
	}
	st, failed, err := op.wait(context.Background())
	if err != nil || len(failed) != 0 {
		t.Fatalf("wait: failed=%v err=%v", failed, err)
	}
	if st.PostedV != 100 || st.DoneV != 300 || st.Fragments != 2 {
		t.Errorf("stat = %+v", st)
	}
	if st.Latency() != 200 {
		t.Errorf("latency = %v", st.Latency())
	}
	if clock.load() != 300 {
		t.Errorf("client clock = %v, want 300", clock.load())
	}
}

// An operation with nothing to transfer has no completion to wait for.
func TestIOOpZeroFragmentsIsComplete(t *testing.T) {
	op := newTestOp(7, nil, 0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	st, _, err := op.wait(ctx)
	if err != nil || st.Fragments != 0 || st.Latency() != 0 {
		t.Errorf("wait = %+v, %v; want an empty success", st, err)
	}
}

func TestIOOpErrorPropagates(t *testing.T) {
	op := newTestOp(0, nil, 2)
	op.completeOne(rdma.WC{Status: rdma.StatusRetryExceeded, Err: rdma.ErrQPState}, 1, 0)
	op.completeOne(rdma.WC{Status: rdma.StatusSuccess}, 1, 0)
	if _, _, err := op.wait(context.Background()); !errors.Is(err, ErrIOFailed) {
		t.Errorf("wait = %v, want ErrIOFailed", err)
	}
}

func TestIOOpFailShortCircuits(t *testing.T) {
	op := newTestOp(0, nil, 3)
	op.completeOne(rdma.WC{Status: rdma.StatusSuccess}, 1, 0)
	op.failCopy(0, errors.New("post failed"), 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, _, err := op.wait(ctx); err == nil {
		t.Error("wait should fail after failCopy()")
	}
}

func TestIOOpWaitContextCancel(t *testing.T) {
	op := newTestOp(0, nil, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, failed, err := op.wait(ctx)
	if !errors.Is(err, ErrIOFailed) || !errors.Is(err, context.Canceled) {
		t.Errorf("wait = %v, want ErrIOFailed wrapping context.Canceled", err)
	}
	if len(failed) != 0 {
		t.Errorf("ctx expiry blamed copies %v", failed)
	}
	if transportFailure(ctx, err) {
		t.Error("ctx expiry classified as a transport failure")
	}
	if !transportFailure(context.Background(), ErrIOFailed) || transportFailure(context.Background(), ErrRegionClosed) {
		t.Error("only ErrIOFailed under a live ctx is a transport failure")
	}
}

// One future covers every copy: it finishes only when all of them have,
// succeeds iff one copy is complete, and its stat covers the complete copies
// only (fragments summed, one start stamp, latest completion among them).
func TestIOOpPerCopyOutcome(t *testing.T) {
	var clock atomicVTime
	op := newTestOp(50, &clock, 2, 1, 2)
	op.completeOne(rdma.WC{Status: rdma.StatusSuccess, DoneV: 120}, 1, 0)
	op.completeOne(rdma.WC{Status: rdma.StatusSuccess, DoneV: 110}, 2, 0)
	op.completeOne(rdma.WC{Status: rdma.StatusRetryExceeded, DoneV: 900}, 3, 1)
	op.completeOne(rdma.WC{Status: rdma.StatusSuccess, DoneV: 140}, 4, 2)
	if isDone(op) {
		t.Fatal("done with a fragment of copy 2 outstanding")
	}
	op.failCopy(2, errors.New("post failed"), 1)
	st, failed, err := op.wait(context.Background())
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if len(failed) != 2 || failed[0] != 1 || failed[1] != 2 {
		t.Errorf("failed = %v, want [1 2]", failed)
	}
	if st.Fragments != 2 || st.PostedV != 50 || st.DoneV != 120 {
		t.Errorf("stat = %+v, want copy 0 only: 2 fragments, 50..120", st)
	}
	if clock.load() != 900 {
		t.Errorf("client clock = %v, want the last completion of any copy (900)", clock.load())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.StagingChunk != 1<<20 || c.StagingCount != 4 || c.QPDepth != 512 {
		t.Errorf("defaults = %+v", c)
	}
	c = Config{StagingChunk: 7, StagingCount: 2, QPDepth: 9}.withDefaults()
	if c.StagingChunk != 7 || c.StagingCount != 2 || c.QPDepth != 9 {
		t.Errorf("overrides = %+v", c)
	}
}
