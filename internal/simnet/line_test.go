package simnet

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestLineReservationsNeverOverlap: arbitrary interleavings of gap-filling
// reservations must produce pairwise-disjoint intervals — double-booking a
// line would fabricate bandwidth.
func TestLineReservationsNeverOverlap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l line
		type iv struct{ from, to VTime }
		var got []iv
		for i := 0; i < 2000; i++ {
			start := VTime(rng.Intn(1 << 20))
			ser := VTime(rng.Intn(1<<12) + 1)
			from, to := l.reserve(start, ser, 0)
			if from < start {
				t.Fatalf("seed %d: reservation [%d,%d) before start %d", seed, from, to, start)
			}
			if to-from != ser {
				t.Fatalf("seed %d: reservation [%d,%d) wrong length, want %d", seed, from, to, ser)
			}
			got = append(got, iv{from, to})
		}
		sort.Slice(got, func(i, j int) bool { return got[i].from < got[j].from })
		for i := 1; i < len(got); i++ {
			if got[i].from < got[i-1].to {
				t.Fatalf("seed %d: overlap [%d,%d) vs [%d,%d)", seed,
					got[i-1].from, got[i-1].to, got[i].from, got[i].to)
			}
		}
	}
}

// TestLineGapFill: a late-start reservation leaves a gap that an earlier
// start can reclaim.
func TestLineGapFill(t *testing.T) {
	var l line
	f1, t1 := l.reserve(1000, 100, 0) // leaves gap [0,1000)
	if f1 != 1000 || t1 != 1100 {
		t.Fatalf("first = [%d,%d)", f1, t1)
	}
	f2, t2 := l.reserve(0, 500, 0) // fills the gap
	if f2 != 0 || t2 != 500 {
		t.Fatalf("gap fill = [%d,%d)", f2, t2)
	}
	f3, _ := l.reserve(0, 600, 0) // does not fit remaining gap [500,1000); goes to frontier
	if f3 != 1100 {
		t.Fatalf("frontier = %d, want 1100", f3)
	}
	f4, t4 := l.reserve(0, 500, 0) // exactly fills [500,1000)
	if f4 != 500 || t4 != 1000 {
		t.Fatalf("exact fill = [%d,%d)", f4, t4)
	}
}

// reserveLinear is line.reserve as it stood before the binary search: the
// first-fit walk from gap zero, body verbatim. It is the oracle the
// differential test and the fuzz target hold reserve to; it predates the
// byte and dropped-gap accounting, which the oracle adds around it.
func (l *line) reserveLinear(start VTime, ser VTime) (from, to VTime) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.busy += ser
	l.ops++
	// First fit into a remembered gap.
	for i := range l.gaps {
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
	if from > l.nextFree && len(l.gaps) < maxGaps {
		l.gaps = append(l.gaps, gap{l.nextFree, from})
	}
	to = from + ser
	l.nextFree = to
	return from, to
}

// Serialisation times the reservation streams draw from, beside zero, a
// few nanoseconds and a remembered gap's exact length: one 64 KiB segment
// at 56 Gb/s, and longer than any gap a stream opens (gaps are at most
// streamMaxLead wide).
const (
	serSegment    = VTime(9362)
	serLong       = VTime(1 << 20)
	streamMaxLead = 1 << 16
)

// resOp is one step of a reservation stream, drawn relative to the line's
// state when it runs so that every stream keeps hitting the interesting
// places however the line has evolved.
type resOp struct {
	where uint8  // start: 0 ahead of the frontier, 1 just behind it, 2 anywhere behind, 3 a gap's from, 4 a gap's to
	class uint8  // ser: 0 zero, 1 tiny, 2 one segment, 3 longer than any gap, 4 exactly the picked gap
	off   uint16 // distance for where 0–2, tiny length for class 1
	pick  uint16 // which gap for where 3–4 and class 4
}

func (o resOp) args(l *line) (start, ser VTime) {
	picked := gap{l.nextFree, l.nextFree}
	if len(l.gaps) > 0 {
		picked = l.gaps[int(o.pick)%len(l.gaps)]
	}
	switch o.where % 5 {
	case 0:
		start = l.nextFree + VTime(o.off)
	case 1:
		start = maxV(0, l.nextFree-VTime(o.off))
	case 2:
		start = l.nextFree * VTime(o.off) / (1 << 16)
	case 3:
		start = picked.from
	case 4:
		start = picked.to
	}
	switch o.class % 5 {
	case 1:
		ser = VTime(o.off%16) + 1
	case 2:
		ser = serSegment
	case 3:
		ser = serLong
	case 4:
		ser = picked.to - picked.from
	}
	return start, ser
}

// linePair runs one reservation stream through reserve and through the
// linear reference and demands identical results and identical state after
// every step.
type linePair struct {
	t           testing.TB
	got, want   line
	wantDropped int64
}

// prefill gives an empty line n one-nanosecond gaps 10 µs apart, the shape
// a long-running line settles into: old, narrow, never filled.
func (l *line) prefill(n int) {
	for i := 0; i < n; i++ {
		l.gaps = append(l.gaps, gap{VTime(i) * 10000, VTime(i)*10000 + 1})
	}
	l.nextFree = VTime(n) * 10000
}

func (p *linePair) step(i int, o resOp) {
	start, ser := o.args(&p.want)
	n := int(o.off)
	// The frontier path is the only one that returns past the old frontier;
	// if it took it without the list growing, the list was full and the
	// idle interval was dropped.
	oldFree, oldGaps := p.want.nextFree, len(p.want.gaps)
	wf, wt := p.want.reserveLinear(start, ser)
	p.want.bytes += int64(n)
	if wf > oldFree && len(p.want.gaps) == oldGaps {
		p.wantDropped++
	}
	gf, gt := p.got.reserve(start, ser, n)
	if gf != wf || gt != wt {
		p.t.Fatalf("step %d reserve(%d, %d) = [%d,%d), linear first fit [%d,%d)", i, start, ser, gf, gt, wf, wt)
	}
	if !slices.Equal(p.got.gaps, p.want.gaps) {
		p.t.Fatalf("step %d reserve(%d, %d): gap lists differ (%d vs %d gaps)", i, start, ser, len(p.got.gaps), len(p.want.gaps))
	}
	if p.got.nextFree != p.want.nextFree || p.got.busy != p.want.busy || p.got.ops != p.want.ops ||
		p.got.bytes != p.want.bytes || p.got.dropped != p.wantDropped {
		p.t.Fatalf("step %d reserve(%d, %d): nextFree/busy/ops/bytes/dropped = %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d",
			i, start, ser, p.got.nextFree, p.got.busy, p.got.ops, p.got.bytes, p.got.dropped,
			p.want.nextFree, p.want.busy, p.want.ops, p.want.bytes, p.wantDropped)
	}
}

// TestLineReserveMatchesLinearFirstFit: the binary search must not change
// a single reservation. Each stream starts on an empty line and is long
// enough to fill the list to maxGaps by opening gaps, push it past the
// bound by splitting them, and then drop the gaps it can no longer record.
func TestLineReserveMatchesLinearFirstFit(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := linePair{t: t}
		maxLen := 0
		for i := 0; i < 10000; i++ {
			o := resOp{off: uint16(rng.Intn(streamMaxLead)), pick: uint16(rng.Intn(1 << 16))}
			// Mostly short ops arriving ahead of the frontier (what opens
			// gaps) or landing on remembered ones (what splits and trims
			// them); the rest of the mix keeps every other case in play.
			o.where = []uint8{0, 0, 0, 0, 1, 2, 3, 4}[rng.Intn(8)]
			o.class = []uint8{0, 1, 1, 1, 1, 2, 3, 4}[rng.Intn(8)]
			p.step(i, o)
			maxLen = max(maxLen, len(p.got.gaps))
		}
		if maxLen <= maxGaps || p.got.dropped == 0 {
			t.Errorf("seed %d: longest list %d gaps, %d dropped: the stream never pushed the list past maxGaps=%d and into dropping",
				seed, maxLen, p.got.dropped, maxGaps)
		}
	}
}

// FuzzLineReserve decodes bytes into a reservation stream and holds reserve
// to the linear reference. The first byte picks how full the list starts,
// so short inputs reach the maxGaps boundary; each following 6 bytes are
// one resOp.
func FuzzLineReserve(f *testing.F) {
	op := func(where, class uint8, off, pick uint16) []byte {
		return binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint16([]byte{where, class}, off), pick)
	}
	cat := func(prefill byte, ops ...[]byte) []byte { return slices.Concat(append([][]byte{{prefill}}, ops...)...) }
	// One seed per boundary case.
	f.Add(cat(0, op(0, 1, 100, 0), op(4, 0, 0, 0)))                     // zero-length at start == gap.to
	f.Add(cat(0, op(0, 1, 100, 0), op(3, 0, 0, 0)))                     // zero-length at start == gap.from
	f.Add(cat(0, op(0, 1, 1000, 0), op(1, 0, 500, 0)))                  // zero-length inside a gap: split into two adjacent gaps
	f.Add(cat(1, op(3, 4, 0, 1)))                                       // exact fill removes a gap
	f.Add(cat(0, op(0, 1, 1000, 0), op(3, 1, 3, 0), op(1, 1, 500, 0)))  // trim the front, then split mid-gap
	f.Add(cat(0, op(0, 1, 1000, 0), op(4, 1, 0, 0), op(2, 1, 100, 0)))  // start == gap.to with ser > 0: later gap or frontier
	f.Add(cat(2, op(0, 1, 50, 0), op(0, 1, 50, 0), op(0, 1, 50, 0)))    // list fills: one more gap kept, the next dropped
	f.Add(cat(2, op(0, 1, 1000, 0), op(1, 1, 500, 0), op(0, 1, 9, 0)))  // full list still grows by a mid-gap split
	f.Add(cat(3, op(2, 2, 40000, 0), op(2, 3, 100, 0), op(1, 2, 1, 0))) // full list, nothing fits: segment and long ser from far behind
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := linePair{t: t}
		n := []int{0, 3, maxGaps - 1, maxGaps}[data[0]%4]
		p.got.prefill(n)
		p.want.prefill(n)
		for i, b := 0, data[1:]; len(b) >= 6 && i < 256; i, b = i+1, b[6:] {
			p.step(i, resOp{where: b[0], class: b[1], off: binary.LittleEndian.Uint16(b[2:]), pick: binary.LittleEndian.Uint16(b[4:])})
		}
	})
}

var sinkV VTime

// BenchmarkLineReserve times one reservation against a full gap list that
// nothing fits into. The frontier is put back before every call so each
// iteration sees the same geometry.
func BenchmarkLineReserve(b *testing.B) {
	for _, bc := range []struct {
		name string
		lag  VTime
		ser  VTime
	}{
		{"steady", 0, 10},             // a 64 B op arriving at the frontier
		{"lagging", 1e6, 10},          // arriving 1 ms behind it: 100 gaps lie ahead of start
		{"segment64k", 0, serSegment}, // a 64 KiB segment at the frontier
	} {
		b.Run(bc.name, func(b *testing.B) {
			// The state every line reaches in a long run: maxGaps gaps, all
			// too narrow for anything, the last 100 of them within the final
			// millisecond before the frontier.
			var l line
			l.prefill(maxGaps)
			frontier := l.nextFree
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.nextFree = frontier
				sinkV, _ = l.reserve(frontier-bc.lag, bc.ser, 64)
			}
		})
	}
}
