package master

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rstore/internal/proto"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
)

// encodeState is the comparison the equivalence tests make: the snapshot a
// replica in this state would ship, as wire bytes.
func encodeState(st *state) []byte {
	var e rpc.Encoder
	st.snapshot(0, 0).Encode(&e)
	return e.Bytes()
}

// allocators dumps every server's free list, the part of the state a
// snapshot only carries implicitly (standbys rebuild it by carving).
func allocators(st *state) map[simnet.NodeID][]span {
	out := make(map[simnet.NodeID][]span)
	for n, s := range st.servers {
		out[n] = append([]span(nil), s.alloc.free...)
	}
	return out
}

// overWire passes a record through its codec, as a standby receives it.
func overWire(rec *proto.ReplRecord) proto.ReplRecord {
	var e rpc.Encoder
	proto.EncodeReplRecord(&e, rec)
	d := rpc.NewDecoder(e.Bytes())
	out := proto.DecodeReplRecord(d)
	if d.Err() != nil {
		panic(d.Err())
	}
	return out
}

// stateTrio is the property test's cluster: every transition is decided on
// a — by the same decision functions the primary's handlers call — and the
// resulting records are replayed on b from the start and on c from a
// mid-run snapshot.
type stateTrio struct {
	t    *testing.T
	a, b state
	c    *state
	seen map[string]int
}

func (r *stateTrio) commit(recs ...proto.ReplRecord) {
	r.t.Helper()
	for i := range recs {
		if err := r.a.apply(&recs[i]); err != nil {
			r.t.Fatalf("primary rejected its own record %+v: %v", recs[i], err)
		}
		for name, st := range map[string]*state{"b": &r.b, "c": r.c} {
			if st == nil {
				continue
			}
			wire := overWire(&recs[i])
			if err := st.apply(&wire); err != nil {
				r.t.Fatalf("replica %s rejected record %+v: %v", name, recs[i], err)
			}
		}
	}
}

func (r *stateTrio) check(step int, reserved bool) {
	r.t.Helper()
	want := encodeState(&r.a)
	if got := encodeState(&r.b); !bytes.Equal(got, want) {
		r.t.Fatalf("step %d: log-replayed replica diverged from the primary", step)
	}
	if !reserved && !reflect.DeepEqual(allocators(&r.a), allocators(&r.b)) {
		r.t.Fatalf("step %d: allocators diverged:\n primary %v\n replica %v", step, allocators(&r.a), allocators(&r.b))
	}
	if r.c == nil {
		return
	}
	if got := encodeState(r.c); !bytes.Equal(got, want) {
		r.t.Fatalf("step %d: snapshot-restored replica diverged from the primary", step)
	}
	if !reflect.DeepEqual(allocators(&r.b), allocators(r.c)) {
		r.t.Fatalf("step %d: snapshot-restored allocators diverged from the log-replayed ones", step)
	}
}

// TestStateMachineEquivalenceProperty: random control-plane histories —
// registrations, rkey bounces, death sweeps, absolving beats, allocations
// that succeed and fail, map/unmap/free, degraded reports, and repairs in
// every outcome — leave a primary, a standby fed the log, and a standby
// restored from a mid-run snapshot plus the tail in byte-identical state
// at every checkpoint. state alone: no RPC, no timers.
func TestStateMachineEquivalenceProperty(t *testing.T) {
	const (
		steps      = 2500
		checkEvery = 25
		servers    = 6
	)
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := &stateTrio{t: t, a: newState(), b: newState(), seen: map[string]int{}}
			rkeys := make([]uint32, servers)
			var pending *repairPlan // a repair between plan and commit, holding its reservation on a
			nextName := 0

			pickRegion := func() *regionState {
				names := r.a.regionNames()
				if len(names) == 0 {
					return nil
				}
				return r.a.regionsByName[names[rng.Intn(len(names))]]
			}
			pickServer := func(alive bool) (simnet.NodeID, bool) {
				var nodes []simnet.NodeID
				for _, n := range r.a.serverNodes() {
					if r.a.servers[n].alive == alive {
						nodes = append(nodes, n)
					}
				}
				if len(nodes) == 0 {
					return 0, false
				}
				return nodes[rng.Intn(len(nodes))], true
			}

			for step := 1; step <= steps; step++ {
				if step == steps/3 {
					// The third replica joins from a snapshot, over the wire.
					var e rpc.Encoder
					r.a.snapshot(0, 0).Encode(&e)
					d := rpc.NewDecoder(e.Bytes())
					snap := proto.DecodeMasterSnapshot(d)
					if d.Err() != nil {
						t.Fatalf("decode snapshot: %v", d.Err())
					}
					c := newState()
					if err := c.restore(&snap); err != nil {
						t.Fatalf("restore: %v", err)
					}
					r.c = &c
				}
				switch op := rng.Intn(20); {
				case op < 2: // register, sometimes under a new rkey
					node := simnet.NodeID(rng.Intn(servers))
					if rng.Intn(3) == 0 {
						rkeys[node]++
					}
					rec, revived := r.a.registerRecord(node, 1<<20, rkeys[node])
					r.commit(rec)
					r.seen["register"]++
					if revived {
						r.commit(r.a.dirtyRecords([]simnet.NodeID{node}, false)...)
						r.seen["register-revived"]++
					}
				case op < 3: // death sweep
					node, ok := pickServer(true)
					if !ok {
						continue
					}
					r.commit(proto.ReplRecord{Kind: proto.ReplServerDead, Node: node})
					r.commit(r.a.dirtyRecords([]simnet.NodeID{node}, true)...)
					r.seen["death"]++
				case op < 5: // the same incarnation beats again
					node, ok := pickServer(false)
					if !ok {
						continue
					}
					r.commit(proto.ReplRecord{Kind: proto.ReplServerAlive, Node: node})
					recs := r.a.absolveRecords(node)
					r.commit(recs...)
					for _, rec := range recs {
						if rec.Kind == proto.ReplClean {
							r.seen["absolved"]++
						} else {
							r.seen["lost-lifted-by-absolution"]++
						}
					}
				case op < 8: // alloc
					req := proto.AllocRequest{
						Name:        fmt.Sprintf("r%d", nextName),
						Size:        uint64(1+rng.Intn(16)) * (16 << 10),
						StripeUnit:  16 << 10,
						StripeWidth: rng.Intn(4),
						Replicas:    rng.Intn(3),
						Token:       rng.Uint64(),
					}
					nextName++
					before := allocators(&r.a)
					rec, err := r.a.allocRecord(req)
					if !reflect.DeepEqual(allocators(&r.a), before) {
						t.Fatalf("step %d: planning %+v left reservations behind", step, req)
					}
					if err != nil {
						alone := req
						alone.Replicas = 0
						if _, err := r.a.allocRecord(alone); err == nil {
							r.seen["alloc-failed-for-replicas"]++
						} else {
							r.seen["alloc-failed-for-space"]++
						}
						continue
					}
					r.commit(rec)
					r.seen["alloc"]++
				case op < 10: // map / unmap
					rs := pickRegion()
					if rs == nil {
						continue
					}
					count := rs.mapCount + 1
					if rs.mapCount > 0 && rng.Intn(3) != 0 {
						count = rs.mapCount - 1
					}
					r.commit(proto.ReplRecord{Kind: proto.ReplMapCount, Name: rs.info.Name, Count: count})
					r.seen["mapcount"]++
				case op < 12: // free
					rs := pickRegion()
					if rs == nil || rs.mapCount > 0 {
						continue
					}
					r.commit(proto.ReplRecord{Kind: proto.ReplRegionFree, Name: rs.info.Name})
					r.seen["free"]++
				case op < 14: // degraded-write report, half the time on the copy under repair
					rs := pickRegion()
					if rs == nil || rs.copyCount() == 1 {
						continue // a lone copy that misses a write is simply lost
					}
					key := repairKey{name: rs.info.Name, copy: rng.Intn(rs.copyCount())}
					if pending != nil && r.a.regionsByName[pending.key.name] != nil && rng.Intn(2) == 0 {
						key = pending.key
					}
					r.commit(proto.ReplRecord{Kind: proto.ReplDirty, Name: key.name, Copy: key.copy})
					r.seen["degraded-report"]++
				case op < 17: // plan a repair or re-home, mostly of a copy that needs one
					rs := pickRegion()
					if rs == nil || pending != nil {
						continue
					}
					key := repairKey{name: rs.info.Name, copy: rng.Intn(rs.copyCount())}
					for _, name := range r.a.regionNames() {
						for j, cand := 0, r.a.regionsByName[name]; j < cand.copyCount(); j++ {
							if (cand.dirty[j] || cand.degraded[j]) && !cand.lost && rng.Intn(4) == 0 {
								key = repairKey{name: name, copy: j}
							}
						}
					}
					rs = r.a.regionsByName[key.name]
					plan, err := r.a.planRepair(key, rs.degraded[key.copy])
					switch {
					case errors.Is(err, errNoSource):
						if !rs.lost {
							r.commit(proto.ReplRecord{Kind: proto.ReplLost, Name: key.name, Lost: true})
							r.seen["lost-set"]++
						}
					case err == nil:
						pending = &plan
					}
				default: // finish the planned repair: commit, or abort
					if pending == nil {
						continue
					}
					plan := *pending
					pending = nil
					if plan.realloc {
						r.a.release(plan.dest)
					}
					if rng.Intn(5) == 0 {
						r.seen["repair-aborted"]++
						continue
					}
					rec, err := r.a.commitRecord(plan)
					if err != nil {
						r.seen["repair-moot"]++
						continue
					}
					r.commit(rec)
					switch {
					case rec.StillDirty:
						r.seen["repair-still-dirty"]++
					case plan.rehome:
						r.seen["repair-rehome"]++
					case plan.realloc:
						r.seen["repair-realloc"]++
					default:
						r.seen["repair-in-place"]++
					}
				}
				if step%checkEvery == 0 {
					r.check(step, pending != nil && pending.realloc)
				}
			}
			r.check(steps, pending != nil && pending.realloc)
			t.Logf("transitions: %v", r.seen)

			for _, kind := range []string{
				"register", "register-revived", "death", "absolved", "lost-lifted-by-absolution",
				"alloc", "alloc-failed-for-space", "alloc-failed-for-replicas", "mapcount", "free",
				"degraded-report", "lost-set", "repair-in-place", "repair-realloc", "repair-still-dirty",
				"repair-aborted",
			} {
				if r.seen[kind] == 0 {
					t.Errorf("the history never exercised %q: %v", kind, r.seen)
				}
			}
		})
	}
}

// TestApplyRejectsImpossibleRecords: a record that does not fit the state
// is refused with errBadRecord — which makes a standby ask for a snapshot
// and a primary fail the request — and leaves the state exactly as it was.
func TestApplyRejectsImpossibleRecords(t *testing.T) {
	st := newState()
	must := func(rec proto.ReplRecord) {
		t.Helper()
		if err := st.apply(&rec); err != nil {
			t.Fatalf("setup record %+v: %v", rec, err)
		}
	}
	for n := simnet.NodeID(1); n <= 2; n++ {
		rec, _ := st.registerRecord(n, 1<<20, uint32(n))
		must(rec)
	}
	first, err := st.allocRecord(proto.AllocRequest{Name: "first", Size: 256 << 10, StripeUnit: 64 << 10, StripeWidth: 1, Replicas: 1})
	if err != nil {
		t.Fatalf("allocRecord: %v", err)
	}
	must(first)

	second, err := st.allocRecord(proto.AllocRequest{Name: "second", Size: 64 << 10, StripeUnit: 64 << 10, StripeWidth: 1})
	if err != nil {
		t.Fatalf("allocRecord: %v", err)
	}
	sameName := second
	sameName.Info = second.Info.Clone()
	sameName.Info.Name = "first"
	staleID := second
	staleID.Info = second.Info.Clone()
	staleID.Info.ID = first.Info.ID
	overlapping := second
	overlapping.Info = second.Info.Clone()
	overlapping.Info.Extents[0] = first.Info.Extents[0]
	beyond := first.Info.Extents[0]
	beyond.Addr = 1 << 20

	for name, rec := range map[string]proto.ReplRecord{
		"region under an existing name":  sameName,
		"region with a stale id":         staleID,
		"region over allocated space":    overlapping,
		"region without a layout":        {Kind: proto.ReplRegion, Name: "none"},
		"free of an unknown region":      {Kind: proto.ReplRegionFree, Name: "nope"},
		"map count of an unknown region": {Kind: proto.ReplMapCount, Name: "nope", Count: 1},
		"dirty copy out of range":        {Kind: proto.ReplDirty, Name: "first", Copy: 2},
		"commit copy out of range":       {Kind: proto.ReplCommit, Name: "first", Copy: 2},
		"commit over allocated space":    {Kind: proto.ReplCommit, Name: "first", Copy: 0, Extents: first.Info.Replicas[0], Generation: 1},
		"commit beyond the arena":        {Kind: proto.ReplCommit, Name: "first", Copy: 0, Extents: []proto.Extent{beyond}, Generation: 1},
		"commit on an unknown server":    {Kind: proto.ReplCommit, Name: "first", Copy: 0, Extents: []proto.Extent{{Server: 9, Len: 64}}, Generation: 1},
		"death of an unknown server":     {Kind: proto.ReplServerDead, Node: 9},
		"unknown kind":                   {Kind: 99},
	} {
		before, beforeAlloc := encodeState(&st), allocators(&st)
		if err := st.apply(&rec); !errors.Is(err, errBadRecord) {
			t.Errorf("%s: apply = %v, want errBadRecord", name, err)
		}
		if !bytes.Equal(encodeState(&st), before) || !reflect.DeepEqual(allocators(&st), beforeAlloc) {
			t.Errorf("%s: the rejected record changed the state", name)
		}
	}
	// The record the rejected ones were derived from still fits.
	must(second)
}
