package memserver

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"rstore/internal/proto"
	"rstore/internal/rdma"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
)

// TestNeedAnnounceFollowsEvidence drives the heartbeat tick by hand against
// a scripted master and pins what arms and disarms needAnnounce: a pass in
// which every dial was refused does (the server may have been the severed
// party), a pass that only ran out of its deadline behind a stalled dial
// does not — it leaves the flag as it found it — and the next served
// contact clears it, by registration when it was armed.
func TestNeedAnnounceFollowsEvidence(t *testing.T) {
	f := simnet.NewFabric(2, simnet.DefaultParams())
	net := rdma.NewNetwork(f)
	opts := rpc.Options{BufSize: 64 << 10, Credits: 2}

	md, err := net.OpenDevice(0)
	if err != nil {
		t.Fatalf("OpenDevice: %v", err)
	}
	master, err := rpc.NewServer(md, proto.MasterService, nil, opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	var beats, registers atomic.Int64
	var unknown atomic.Bool // the master does not know the server: it refuses beats
	master.Handle(proto.MtHeartbeat, func(context.Context, simnet.NodeID, *rpc.Decoder) (*rpc.Encoder, error) {
		if unknown.Load() {
			return nil, errors.New("master: heartbeat from unregistered server")
		}
		beats.Add(1)
		return &rpc.Encoder{}, nil
	})
	master.Handle(proto.MtRegisterServer, func(context.Context, simnet.NodeID, *rpc.Decoder) (*rpc.Encoder, error) {
		registers.Add(1)
		unknown.Store(false)
		return &rpc.Encoder{}, nil
	})
	master.Serve()
	defer master.Close()

	// A server with no loops running: the test is its heartbeat goroutine.
	sd, err := net.OpenDevice(1)
	if err != nil {
		t.Fatalf("OpenDevice: %v", err)
	}
	pd := sd.AllocPD()
	arena, err := pd.RegisterMemory(make([]byte, 4096), rdma.AccessLocalWrite)
	if err != nil {
		t.Fatalf("RegisterMemory: %v", err)
	}
	s := &Server{
		cfg:        Config{Capacity: 4096, HeartbeatInterval: 10 * time.Millisecond, RPC: opts}.withDefaults(),
		dev:        sd,
		pd:         pd,
		arena:      arena,
		reconnects: sd.Telemetry().Counter("memserver.reconnects"),
	}
	var stall atomic.Bool
	var dials atomic.Int64
	s.masters = proto.NewMasterGroup(s.cfg.Masters, func(ctx context.Context, node simnet.NodeID) (*rpc.Conn, error) {
		dials.Add(1)
		if stall.Load() {
			<-ctx.Done() // neither accepted nor refused
			return nil, ctx.Err()
		}
		return s.dialMaster(ctx, node)
	})
	defer s.masters.Close()
	ctx := context.Background()

	check := func(step string, wantAnnounce bool, wantBeats, wantRegisters, wantDials int64) {
		t.Helper()
		if s.needAnnounce != wantAnnounce {
			t.Errorf("%s: needAnnounce = %v, want %v", step, s.needAnnounce, wantAnnounce)
		}
		if b, r, d := beats.Load(), registers.Load(), dials.Load(); b != wantBeats || r != wantRegisters || d != wantDials {
			t.Errorf("%s: %d beats, %d registrations, %d dials; want %d, %d, %d", step, b, r, d, wantBeats, wantRegisters, wantDials)
		}
	}

	s.beat(ctx)
	check("first contact", false, 1, 0, 1)

	if err := f.SetNodeUp(0, false); err != nil {
		t.Fatalf("SetNodeUp: %v", err)
	}
	stall.Store(true)
	s.beat(ctx)
	check("stalled dial, flag clear", false, 1, 0, 2)

	stall.Store(false)
	s.beat(ctx)
	check("dial refused", true, 1, 0, 3)

	stall.Store(true)
	s.beat(ctx)
	check("stalled dial, flag armed", true, 1, 0, 4)

	stall.Store(false)
	if err := f.SetNodeUp(0, true); err != nil {
		t.Fatalf("SetNodeUp: %v", err)
	}
	s.beat(ctx)
	check("contact after isolation re-registers", false, 1, 1, 5)

	s.beat(ctx)
	check("steady state", false, 2, 1, 5)

	unknown.Store(true)
	s.beat(ctx)
	check("refused beat registers on the same connection", false, 2, 2, 5)
}
