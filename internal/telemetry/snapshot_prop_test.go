package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"rstore/internal/simnet"
)

// randomSnapshot drives a fresh registry through a seeded schedule of
// counter adds, gauge sets, histogram records (integer-valued, so sums are
// exact), clock advances — including the occasional gap longer than a
// ring — and interim snapshots, then freezes it wherever the clock
// stopped: two calls yield snapshots taken at different bucket boundaries.
func randomSnapshot(rng *rand.Rand, node simnet.NodeID) Snapshot {
	r := New(node)
	now := simnet.VTime(rng.Intn(20)) * simnet.VTime(time.Millisecond)
	r.SetWindowClock(func() simnet.VTime { return now })
	for step, steps := 0, 50+rng.Intn(150); step < steps; step++ {
		name := fmt.Sprintf("m%d", rng.Intn(6))
		switch rng.Intn(6) {
		case 0:
			r.Counter(name).Add(int64(rng.Intn(100)))
		case 1:
			r.Gauge(name).Set(int64(rng.Intn(200) - 50))
		case 2:
			h := r.Histogram(name)
			// Sometimes enough to overflow a window's wire budget, and
			// over many steps the lifetime one.
			for k, n := 0, 1+rng.Intn(3)*rng.Intn(60); k < n; k++ {
				h.RecordValue(float64(rng.Intn(10000)))
			}
		case 3:
			now += simnet.VTime(rng.Intn(3000)) * simnet.VTime(time.Microsecond)
		case 4:
			if rng.Intn(10) == 0 {
				now += 40 * simnet.VTime(time.Millisecond)
			}
		case 5:
			r.Snapshot()
		}
	}
	now += simnet.VTime(rng.Intn(3)) * simnet.VTime(time.Millisecond)
	return r.Snapshot()
}

// mapHistograms returns s with every lifetime histogram passed through
// total and every window histogram through window.
func mapHistograms(s Snapshot, total, window func(HistogramSnapshot) HistogramSnapshot) Snapshot {
	out := s
	out.Histograms = make(map[string]HistogramSnapshot)
	for name, h := range s.Histograms {
		out.Histograms[name] = total(h)
	}
	out.HistogramWindows = make(map[string]Ring[HistogramSnapshot])
	for name, ring := range s.HistogramWindows {
		ring = ring.clone()
		for i, h := range ring.Vals {
			ring.Vals[i] = window(h)
		}
		out.HistogramWindows[name] = ring
	}
	return out
}

// wireView is what s looks like after the documented marshal-time
// subsampling: lifetime reservoirs strided to wireMaxSamples, per-window
// ones to winWireSamples, nothing else changed.
func wireView(s Snapshot) Snapshot {
	clip := func(limit int) func(HistogramSnapshot) HistogramSnapshot {
		return func(h HistogramSnapshot) HistogramSnapshot {
			h.Samples = append([]float64(nil), strideSample(h.Samples, limit)...)
			return h
		}
	}
	return mapHistograms(s, clip(wireMaxSamples), clip(winWireSamples))
}

// shape strips the reservoirs, whose order (never their summary stats)
// depends on merge order.
func shape(s Snapshot) Snapshot {
	bare := func(h HistogramSnapshot) HistogramSnapshot { h.Samples = nil; return h }
	return mapHistograms(s, bare, bare)
}

func merged(parts ...Snapshot) Snapshot {
	var acc Snapshot
	for _, p := range parts {
		acc.Merge(p)
	}
	return acc
}

// Property: for random registries frozen at different bucket boundaries,
// decode(encode(s)) is s up to the documented reservoir subsampling,
// encoding is deterministic, and Merge is commutative and associative on
// counters, gauges, ring alignment and histogram summary stats.
func TestSnapshotRoundTripAndMergeProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randomSnapshot(rng, 1), randomSnapshot(rng, 2), randomSnapshot(rng, 3)

		for i, s := range []Snapshot{a, b, c, merged(a, b, c)} {
			blob, err := s.MarshalBinary()
			if err != nil {
				t.Fatalf("seed %d snapshot %d: marshal: %v", seed, i, err)
			}
			var got Snapshot
			if err := got.UnmarshalBinary(blob); err != nil {
				t.Fatalf("seed %d snapshot %d: unmarshal: %v", seed, i, err)
			}
			if want := wireView(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d snapshot %d: round trip mismatch:\n got %+v\nwant %+v", seed, i, got, want)
			}
			again, err := got.MarshalBinary()
			if err != nil || !bytes.Equal(again, blob) {
				t.Fatalf("seed %d snapshot %d: re-encoding a decoded snapshot changed the bytes (err %v)", seed, i, err)
			}
		}

		if ab, ba := shape(merged(a, b)), shape(merged(b, a)); !reflect.DeepEqual(ab, ba) {
			t.Fatalf("seed %d: merge not commutative:\n a+b %+v\n b+a %+v", seed, ab, ba)
		}
		left, right := shape(merged(merged(a, b), c)), shape(merged(a, merged(b, c)))
		if !reflect.DeepEqual(left, right) {
			t.Fatalf("seed %d: merge not associative:\n (a+b)+c %+v\n a+(b+c) %+v", seed, left, right)
		}
	}
}

// Regression (outside input): a well-formed blob whose ring ends at
// MaxInt64, merged with a ring ending near MinInt64, used to size the
// result from a wrapped int64 difference and panic in makeslice — on the
// master, under its lock. The merge must keep the newer ring.
func TestRingMergeExtremeEndsDoesNotOverflow(t *testing.T) {
	win := HistogramSnapshot{Count: 1, Sum: 4, Min: 4, Max: 4, Samples: []float64{4}}
	far := Snapshot{
		WidthNS:          int64(time.Millisecond),
		CounterWindows:   map[string]Ring[int64]{"ops": {End: math.MaxInt64, Vals: []int64{1, 2, 3}}},
		HistogramWindows: map[string]Ring[HistogramSnapshot]{"lat": {End: math.MaxInt64, Vals: []HistogramSnapshot{win}}},
	}
	blob, err := far.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for _, order := range []string{"old+new", "new+old"} {
		acc := Snapshot{
			WidthNS:          int64(time.Millisecond),
			CounterWindows:   map[string]Ring[int64]{"ops": {End: math.MinInt64 + 5, Vals: []int64{9, 9}}},
			HistogramWindows: map[string]Ring[HistogramSnapshot]{"lat": {End: math.MinInt64 + 5, Vals: []HistogramSnapshot{win, win}}},
		}
		if order == "old+new" {
			acc.Merge(decoded)
		} else {
			acc = merged(decoded, acc)
		}
		ops := acc.CounterWindows["ops"]
		if ops.End != math.MaxInt64 || len(ops.Vals) != maxWindows || acc.CounterDelta("ops", 0) != 6 || acc.CounterDelta("ops", 3) != 6 {
			t.Fatalf("%s: merged ring = %+v, want the newer ring's [1 2 3] ending at MaxInt64", order, ops)
		}
		if lat := acc.HistogramWindows["lat"]; lat.End != math.MaxInt64 || acc.HistogramWindow("lat", 0).Count != 1 {
			t.Fatalf("%s: merged histogram ring = %+v, want the newer ring alone", order, lat)
		}
	}
}

// wireFixture is a fixed registry — 12 counters (8 active at different
// cadences), 4 gauges, 3 histograms (2 active), 40 one-millisecond buckets
// with a snapshot per bucket — shared by the size guard and the fuzz seed.
func wireFixture() Snapshot {
	r := New(1)
	var now simnet.VTime
	r.SetWindowClock(func() simnet.VTime { return now })
	for b := 0; b < 40; b++ {
		for i := 0; i < 12; i++ {
			c := r.Counter(fmt.Sprintf("layer%d.counter_%02d", i%4, i))
			if i < 8 && b%(i+1) == 0 {
				c.Add(int64(b + i + 1))
			}
		}
		for i := 0; i < 4; i++ {
			g := r.Gauge(fmt.Sprintf("layer%d.gauge_%d", i, i))
			if i < 3 {
				g.Set(int64(b * (i + 1)))
			}
		}
		for i := 0; i < 3; i++ {
			h := r.Histogram(fmt.Sprintf("layer%d.latency_%d", i, i))
			if i < 2 {
				for k := 0; k < 5*(i+1)+b%3; k++ {
					h.RecordValue(float64(1000*b + 10*k + i))
				}
			}
		}
		now += simnet.VTime(time.Millisecond)
		r.Snapshot()
	}
	return r.Snapshot()
}

// Size guard: the one heartbeat blob must not outgrow the two it replaced.
// At the parent commit (13af4cb) this same registry marshaled to 4,555 B of
// cumulative snapshot plus 9,731 B of window snapshot, each behind a 4-byte
// Bytes32 length: 14,294 B on the wire.
func TestSnapshotBlobNotLargerThanTheTwoItReplaced(t *testing.T) {
	const parentStats, parentWindows, frame = 4555, 9731, 4
	blob, err := wireFixture().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := len(blob)+frame, parentStats+parentWindows+2*frame; got > limit {
		t.Fatalf("heartbeat payload = %d B, parent's two blobs were %d B", got, limit)
	} else {
		t.Logf("heartbeat payload = %d B (parent: %d B)", got, limit)
	}
}

// FuzzSnapshotWire: arbitrary bytes never panic the decoder; whatever
// decodes survives its own round trip, and merges with a fixed snapshot
// (either way round) and re-encodes without panicking. The seed corpus (testdata/fuzz) holds a
// full fixture blob, the MaxInt64-ring overflow case, torn and over-long
// inputs, so this runs as a unit test everywhere tier-1 does.
func FuzzSnapshotWire(f *testing.F) {
	fixture := wireFixture()
	good, err := fixture.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of a decoded snapshot: %v", err)
		}
		var back Snapshot
		if err := back.UnmarshalBinary(blob); err != nil {
			t.Fatalf("decode of a re-encoded snapshot: %v", err)
		}
		for _, acc := range []Snapshot{merged(fixture, s), merged(s, fixture)} {
			if _, err := acc.MarshalBinary(); err != nil {
				t.Fatalf("encode after merge: %v", err)
			}
		}
	})
}
