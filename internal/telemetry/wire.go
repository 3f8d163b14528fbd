package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"rstore/internal/simnet"
)

// Snapshot wire format (version 2, little-endian) — the one telemetry
// encoding on the control plane: the heartbeat piggyback, MtStats and
// MtHealth all carry it.
//
//	u8  version
//	u64 widthNS     window bucket width; 0 = the snapshot has no windows
//	u32 counter count; per counter: name, i64 total, ring of i64
//	u32 gauge count;   per gauge:   name, i64 value, ring of i64
//	u32 hist count;    per hist:    name, hist,      ring of hist
//
//	name = u16 len, bytes
//	ring = u8 n (<= maxWindows); when n > 0: i64 end, n values oldest first
//	hist = i64 count, f64 sum, f64 min, f64 max, u16 samples, f64 each
//
// A metric's name is written once, ahead of its lifetime value and its
// window ring, and names go out sorted, so equal snapshots encode to equal
// bytes. Histogram reservoirs are subsampled on marshal — lifetime ones to
// wireMaxSamples, per-window ones to winWireSamples — so a node snapshot
// with many histograms stays well under the RPC buffer size; quantile
// answers degrade gracefully.
const (
	snapshotWireVersion = 2
	wireMaxSamples      = 256
	winWireSamples      = 64
)

// ErrBadSnapshot reports a malformed or incompatible wire snapshot.
var ErrBadSnapshot = errors.New("telemetry: malformed snapshot")

// MarshalBinary encodes the snapshot for the control plane.
func (s Snapshot) MarshalBinary() ([]byte, error) {
	buf := []byte{snapshotWireVersion}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.WidthNS))
	i64 := func(buf []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	hist := func(limit int) func([]byte, HistogramSnapshot) []byte {
		return func(buf []byte, h HistogramSnapshot) []byte { return appendHist(buf, h, limit) }
	}
	var err error
	if buf, err = appendMetrics(buf, s.Counters, s.CounterWindows, i64, i64); err != nil {
		return nil, err
	}
	if buf, err = appendMetrics(buf, s.Gauges, s.GaugeWindows, i64, i64); err != nil {
		return nil, err
	}
	return appendMetrics(buf, s.Histograms, s.HistogramWindows, hist(wireMaxSamples), hist(winWireSamples))
}

// appendMetrics encodes one metric kind: every name in either map with its
// lifetime value (total) and its ring (each value by window).
func appendMetrics[T any](buf []byte, totals map[string]T, rings map[string]Ring[T], total, window func([]byte, T) []byte) ([]byte, error) {
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	for name := range rings {
		if _, dup := totals[name]; !dup {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(names)))
	for _, name := range names {
		var err error
		if buf, err = appendName(buf, name); err != nil {
			return nil, err
		}
		buf = total(buf, totals[name])
		vals := rings[name].last(maxWindows)
		buf = append(buf, uint8(len(vals)))
		if len(vals) > 0 {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(rings[name].End))
		}
		for _, v := range vals {
			buf = window(buf, v)
		}
	}
	return buf, nil
}

// appendHist encodes one histogram value, lifetime or per-window alike,
// with its reservoir subsampled to at most limit samples.
func appendHist(buf []byte, h HistogramSnapshot, limit int) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.Count))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.Sum))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.Min))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.Max))
	samples := strideSample(h.Samples, limit)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(samples)))
	for _, v := range samples {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func appendName(buf []byte, name string) ([]byte, error) {
	if len(name) > math.MaxUint16 {
		return nil, fmt.Errorf("telemetry: metric name too long (%d bytes)", len(name))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	return append(buf, name...), nil
}

// UnmarshalBinary decodes a wire snapshot into a fresh value and replaces
// s's contents only when all of data decoded; on error s is untouched.
func (s *Snapshot) UnmarshalBinary(data []byte) error {
	d := wireReader{buf: data}
	if v := d.u8(); v != snapshotWireVersion {
		return fmt.Errorf("%w: version %d", ErrBadSnapshot, v)
	}
	out := Snapshot{WidthNS: int64(d.u64())}
	if out.WidthNS < 0 {
		return fmt.Errorf("%w: window width %d", ErrBadSnapshot, out.WidthNS)
	}
	i64 := func(d *wireReader) int64 { return int64(d.u64()) }
	out.Counters, out.CounterWindows = readMetrics(&d, out.WidthNS > 0, i64)
	out.Gauges, out.GaugeWindows = readMetrics(&d, out.WidthNS > 0, i64)
	out.Histograms, out.HistogramWindows = readMetrics(&d, out.WidthNS > 0, readHist)
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(d.buf))
	}
	*s = out
	return nil
}

// readMetrics decodes one metric kind. Rings exist only in a windowed
// snapshot and never exceed maxWindows; anything else fails the reader.
func readMetrics[T any](d *wireReader, windowed bool, val func(*wireReader) T) (map[string]T, map[string]Ring[T]) {
	n := d.u32()
	if d.err != nil || n > uint32(len(d.buf)) {
		d.err = ErrBadSnapshot
		return nil, nil
	}
	totals := make(map[string]T, n)
	var rings map[string]Ring[T]
	if windowed {
		rings = make(map[string]Ring[T])
	}
	for i := uint32(0); i < n && d.err == nil; i++ {
		name := d.name()
		totals[name] = val(d)
		k := int(d.u8())
		if k == 0 {
			continue
		}
		if k > maxWindows || !windowed {
			d.err = ErrBadSnapshot
			break
		}
		ring := Ring[T]{End: int64(d.u64()), Vals: make([]T, k)}
		for j := range ring.Vals {
			ring.Vals[j] = val(d)
		}
		rings[name] = ring
	}
	return totals, rings
}

// readHist decodes one histogram value written by appendHist.
func readHist(d *wireReader) HistogramSnapshot {
	h := HistogramSnapshot{
		Count: int64(d.u64()),
		Sum:   math.Float64frombits(d.u64()),
		Min:   math.Float64frombits(d.u64()),
		Max:   math.Float64frombits(d.u64()),
	}
	if raw := d.take(8 * int(d.u16())); len(raw) > 0 {
		h.Samples = make([]float64, len(raw)/8)
		for i := range h.Samples {
			h.Samples[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	return h
}

// Span wire format (version 1, little-endian), used by the MtTraceFetch
// trace plane to ship ring contents between nodes:
//
//	u8  version
//	u32 span count; per span:
//	    u64 trace, u64 id, u64 parent,
//	    u16 name len, name bytes,
//	    u32 node, u64 startV, u64 endV,
//	    u16 err len, err bytes
const spanWireVersion = 1

// MarshalSpans encodes spans for the trace-fetch control plane.
func MarshalSpans(spans []Span) ([]byte, error) {
	buf := []byte{spanWireVersion}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(spans)))
	for _, s := range spans {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Trace))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.ID))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Parent))
		var err error
		if buf, err = appendName(buf, s.Name); err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Node))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.StartV))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.EndV))
		if buf, err = appendName(buf, s.Err); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// UnmarshalSpans decodes a span blob produced by MarshalSpans.
func UnmarshalSpans(data []byte) ([]Span, error) {
	d := wireReader{buf: data}
	if v := d.u8(); v != spanWireVersion {
		return nil, fmt.Errorf("%w: span version %d", ErrBadSnapshot, v)
	}
	n := d.u32()
	if d.err != nil || n > uint32(len(data)) {
		return nil, ErrBadSnapshot
	}
	spans := make([]Span, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		var s Span
		s.Trace = TraceID(d.u64())
		s.ID = SpanID(d.u64())
		s.Parent = SpanID(d.u64())
		s.Name = d.name()
		s.Node = simnet.NodeID(d.u32())
		s.StartV = simnet.VTime(d.u64())
		s.EndV = simnet.VTime(d.u64())
		s.Err = d.name()
		spans = append(spans, s)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(d.buf))
	}
	return spans, nil
}

// wireReader is a tiny sticky-error cursor over the wire buffer.
type wireReader struct {
	buf []byte
	err error
}

func (d *wireReader) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = ErrBadSnapshot
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *wireReader) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *wireReader) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *wireReader) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *wireReader) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *wireReader) name() string {
	n := int(d.u16())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
