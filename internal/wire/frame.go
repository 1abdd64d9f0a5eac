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
//   - the batched-transition frame (FrameCall, MarshalFrame,
//     UnmarshalFrame): a length-prefixed sequence of relay invocations
//     coalesced into a single ecall/ocall.

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
	case KindMap:
		n += uvarintLen(v.w)
		for _, p := range v.pairs() {
			n += uvarintLen(uint64(len(p.Key))) + len(p.Key) + Size(p.Val)
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

// FrameCall is one relay invocation inside a batched transition: the
// same (class, relay method, receiver hash, marshalled argument vector)
// tuple a single transition would carry.
type FrameCall struct {
	Class  string
	Method string
	Hash   int64
	Args   []byte
}

// frameCallSize returns the encoded size of one frame entry.
func frameCallSize(c FrameCall) int {
	return uvarintLen(uint64(len(c.Class))) + len(c.Class) +
		uvarintLen(uint64(len(c.Method))) + len(c.Method) +
		varintLen(c.Hash) +
		uvarintLen(uint64(len(c.Args))) + len(c.Args)
}

// FrameSize returns the exact encoded size of a call frame.
func FrameSize(calls []FrameCall) int {
	n := uvarintLen(uint64(len(calls)))
	for _, c := range calls {
		n += frameCallSize(c)
	}
	return n
}

// AppendFrame encodes a batched-call frame onto dst: a uvarint call
// count followed by, per call, length-prefixed class and method names, a
// varint receiver hash, and the length-prefixed marshalled arguments.
func AppendFrame(dst []byte, calls []FrameCall) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(calls)))
	for _, c := range calls {
		dst = binary.AppendUvarint(dst, uint64(len(c.Class)))
		dst = append(dst, c.Class...)
		dst = binary.AppendUvarint(dst, uint64(len(c.Method)))
		dst = append(dst, c.Method...)
		dst = binary.AppendVarint(dst, c.Hash)
		dst = binary.AppendUvarint(dst, uint64(len(c.Args)))
		dst = append(dst, c.Args...)
	}
	return dst
}

// MarshalFrame encodes a batched-call frame into a fresh exact-size
// buffer.
func MarshalFrame(calls []FrameCall) []byte {
	return AppendFrame(make([]byte, 0, FrameSize(calls)), calls)
}

// UnmarshalFrame decodes a buffer produced by MarshalFrame. Decoded
// fields are copies; the input buffer may be reused afterwards.
func UnmarshalFrame(buf []byte) ([]FrameCall, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, ErrTruncated
	}
	calls := make([]FrameCall, 0, clampCount(count, len(buf)-n))
	for i := uint64(0); i < count; i++ {
		var c FrameCall
		class, l, err := decodeView(buf[n:])
		if err != nil {
			return nil, err
		}
		c.Class, n = string(class), n+l
		method, l, err := decodeView(buf[n:])
		if err != nil {
			return nil, err
		}
		c.Method, n = string(method), n+l
		hash, l := binary.Varint(buf[n:])
		if l <= 0 {
			return nil, ErrTruncated
		}
		c.Hash, n = hash, n+l
		args, l, err := decodeBytes(buf[n:])
		if err != nil {
			return nil, err
		}
		c.Args, n = args, n+l
		calls = append(calls, c)
	}
	if n != len(buf) {
		return nil, fmt.Errorf("wire: %d trailing frame bytes", len(buf)-n)
	}
	return calls, nil
}
