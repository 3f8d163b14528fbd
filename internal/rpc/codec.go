// Package rpc provides the control-plane request/response layer used by
// RStore's master, memory servers, and clients.
//
// Messages ride on two-sided RDMA SEND/RECV over internal/rdma queue pairs.
// This mirrors the paper's design: the control path (naming, allocation,
// mapping) is message-based and deliberately off the data path, which uses
// one-sided verbs exclusively.
//
// Encoding is a compact hand-rolled binary format (package Encoder/Decoder)
// so the whole stack stays on the standard library.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Codec errors.
var (
	ErrShortMessage = errors.New("rpc: short message")
	ErrOversize     = errors.New("rpc: value exceeds limit")
)

// Encoder builds a binary payload. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the encoded size so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a boolean byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes32 appends a length-prefixed byte string (max 4 GiB).
func (e *Encoder) Bytes32(v []byte) {
	e.U32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(v string) {
	e.U32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// Decoder walks a binary payload. Errors are sticky: after the first
// failure every further read returns zero values and Err() reports the
// failure, so call sites can decode a whole struct and check once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns how many bytes have not been consumed.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.err = fmt.Errorf("%w: need %d, have %d", ErrShortMessage, n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a boolean byte.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Bytes32 reads a length-prefixed byte string. The returned slice aliases
// the decoder's buffer; copy it if it must outlive the message.
func (d *Decoder) Bytes32() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if int64(n) > int64(d.Remaining()) {
		d.err = fmt.Errorf("%w: byte string of %d", ErrShortMessage, n)
		return nil
	}
	return d.take(int(n))
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes32()) }
