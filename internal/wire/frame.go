package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// This file extends the wire vocabulary for the boundary dispatch layer:
//
//   - exact-size precompute (Size/SizeValues) and copy-free list encoding
//     (AppendValues), so the marshalling hot path can reserve one
//     right-sized — and poolable — buffer instead of growing it;
//   - the batched-transition frame (ReadFrame): a count of call records
//     (slot.go) coalesced into a single ecall/ocall, read through the
//     same record decoder as a ring slot.

// uvarintLen returns the encoded length of binary.AppendUvarint(nil, x).
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// varintLen returns the encoded length of binary.AppendVarint(nil, x)
// (zig-zag followed by uvarint).
func varintLen(x int64) int {
	return uvarintLen(uint64(x)<<1 ^ uint64(x>>63))
}

// Size returns the exact number of bytes Append(dst, v) adds to dst.
func Size(v Value) int {
	n := 1 // kind tag
	switch v.kind {
	case KindNull, KindInvalid:
	case KindBool:
		n++
	case KindInt:
		n += varintLen(int64(v.w))
	case KindFloat:
		n += 8
	case KindString:
		n += uvarintLen(uint64(len(v.s))) + len(v.s)
	case KindBytes:
		n += uvarintLen(v.w) + int(v.w)
	case KindList:
		n += uvarintLen(v.w)
		for _, e := range v.elems() {
			n += Size(e)
		}
	case KindRef:
		n += varintLen(int64(v.w)) + uvarintLen(uint64(len(v.s))) + len(v.s)
	}
	return n
}

// SizeValues returns the exact encoded size of the value sequence vs as
// produced by AppendValues (equivalently MarshalList).
func SizeValues(vs []Value) int {
	n := 1 + uvarintLen(uint64(len(vs)))
	for _, v := range vs {
		n += Size(v)
	}
	return n
}

// AppendValues encodes the value sequence vs onto dst exactly as
// Append(dst, List(vs...)) would, without copying vs into a List value.
func AppendValues(dst []byte, vs []Value) []byte {
	dst = AppendListHeader(dst, len(vs))
	for _, v := range vs {
		dst = Append(dst, v)
	}
	return dst
}

// AppendListHeader starts the encoding of a list of n elements on dst;
// the caller follows it with exactly n Append calls. A message whose
// fields are already at hand is encoded this way without first being
// gathered into a slice.
func AppendListHeader(dst []byte, n int) []byte {
	dst = append(dst, byte(KindList))
	return binary.AppendUvarint(dst, uint64(n))
}

// AppendBytesHeader starts the encoding of a bytes value of n bytes on
// dst; the caller follows it with exactly those n bytes, produced in
// place instead of being copied through a Value.
func AppendBytesHeader(dst []byte, n int) []byte {
	dst = append(dst, byte(KindBytes))
	return binary.AppendUvarint(dst, uint64(n))
}

// Frame iterates the call records of a batch frame — a uvarint record
// count followed by that many records — that ReadFrame accepted.
type Frame struct{ rest []byte }

// ReadFrame checks that buf is one complete batch frame and returns an
// iterator over its records. A frame is all or nothing: every record is
// decoded (as views, copying nothing) before ReadFrame returns, so a
// frame with one bad record yields an error and no record at all. buf
// must not change while the Frame is in use.
func ReadFrame(buf []byte) (Frame, error) {
	count, n := binary.Uvarint(buf)
	// A record spans at least four bytes: a count larger than the bytes
	// left fails before the walk.
	if n <= 0 || count > uint64(len(buf)-n) {
		return Frame{}, ErrTruncated
	}
	rest := buf[n:]
	for ; count > 0; count-- {
		_, _, _, _, l, err := decodeCall(rest)
		if err != nil {
			return Frame{}, err
		}
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return Frame{}, fmt.Errorf("%w: %d after the batch frame", ErrTrailing, len(rest))
	}
	return Frame{rest: buf[n:]}, nil
}

// Next returns the frame's next record, whose Args alias the frame
// buffer, or ok=false once every record was returned.
func (f *Frame) Next() (c Call, ok bool) {
	c, n, err := DecodeCall(f.rest)
	if err != nil { // the end (or a buffer changed since ReadFrame)
		f.rest = nil
		return Call{}, false
	}
	f.rest = f.rest[n:]
	return c, true
}
