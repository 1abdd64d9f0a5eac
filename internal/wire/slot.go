package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file is the wire vocabulary of the boundary crossing: the
// fixed-capacity "slot" encoder of the zero-copy ring data plane
// (internal/ring) and the call record that a ring slot and a batch frame
// (frame.go) both carry, with its one decoder.
//
// A ring slot is a fixed region of untrusted shared memory. Encoding
// into it must never reallocate — a grown slice would silently point at
// private Go memory instead of the slot, defeating the zero-copy path
// and the in-place seal that follows. AppendValuesSlot therefore checks
// the exact precomputed size (SizeValues) against the slot's remaining
// capacity up front and fails with ErrSlotFull instead of growing; a
// submission is sized with CallSize before a slot is claimed for it.

// ErrSlotFull is returned by AppendValuesSlot when the encoded payload
// would exceed the slot's fixed capacity. Callers fall back to the
// (growable, pooled) frame path.
var ErrSlotFull = errors.New("wire: encoded payload exceeds slot capacity")

// AppendValuesSlot is AppendValues into a fixed-capacity slot buffer:
// it returns ErrSlotFull — without writing — when the exact encoded
// size does not fit in cap(slot)-len(slot), and otherwise guarantees
// the append never reallocates, so the returned slice aliases slot's
// backing array.
func AppendValuesSlot(slot []byte, vs []Value) ([]byte, error) {
	if SizeValues(vs) > cap(slot)-len(slot) {
		return slot, ErrSlotFull
	}
	return AppendValues(slot, vs), nil
}

// Ring-call header flags.
const (
	// CallWantResult marks a submission whose completion carries a
	// marshalled result vector; a void call, batched or not, leaves it
	// clear so the consumer skips (and never charges for) result
	// serialization.
	CallWantResult = 1 << 0
)

// Call is one call record, the unit that crosses the boundary: the
// (class, relay method, receiver hash, marshalled argument vector)
// tuple of one relay invocation or GC release (§5.2, §5.5). Encoded, it
// is
//
//	uvarint len(class) · class · uvarint len(method) · method ·
//	varint hash · uvarint len(args) · args
//
// A ring slot carries one flags byte and one record; a batch frame
// carries a record count and that many records. A decoded Call's Args
// ALIASES the buffer it was decoded from — valid only until that slot
// is reused or that frame recycled — while Class and Method are copies.
type Call struct {
	Class  string
	Method string
	Hash   int64
	Args   []byte
}

// CallSize returns the exact size of one call record whose argument
// vector is argsLen bytes. A ring slot adds one flags byte. Pass
// SizeValues(args) as argsLen to size a zero-copy encode.
func CallSize(class, method string, hash int64, argsLen int) int {
	return uvarintLen(uint64(len(class))) + len(class) +
		uvarintLen(uint64(len(method))) + len(method) +
		varintLen(hash) +
		uvarintLen(uint64(argsLen)) + argsLen
}

// AppendCallHeader encodes a call record up to its argument bytes onto
// dst: length-prefixed class and method names, the varint receiver hash
// and the argument byte-length prefix. The caller appends exactly
// argsLen argument bytes afterwards — on the zero-copy path via
// AppendValues straight into the slot, with the length prefix trusted
// from the exact-size precompute. A ring slot's flags byte goes before
// the header.
func AppendCallHeader(dst []byte, class, method string, hash int64, argsLen int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(class)))
	dst = append(dst, class...)
	dst = binary.AppendUvarint(dst, uint64(len(method)))
	dst = append(dst, method...)
	dst = binary.AppendVarint(dst, hash)
	dst = binary.AppendUvarint(dst, uint64(argsLen))
	return dst
}

// DecodeCall decodes the call record at the start of buf and returns it
// with the number of bytes it spans. The record's Args alias buf.
func DecodeCall(buf []byte) (Call, int, error) {
	class, method, hash, args, n, err := decodeCall(buf)
	if err != nil {
		return Call{}, 0, err
	}
	return Call{Class: string(class), Method: string(method), Hash: hash, Args: args}, n, nil
}

// decodeCall is DecodeCall with every field a view, so that validating
// a whole frame copies nothing. args is capped at its own length: an
// append to it cannot run over the next record.
func decodeCall(buf []byte) (class, method []byte, hash int64, args []byte, n int, err error) {
	class, n, err = decodeView(buf)
	if err != nil {
		return nil, nil, 0, nil, 0, err
	}
	method, l, err := decodeView(buf[n:])
	if err != nil {
		return nil, nil, 0, nil, 0, err
	}
	n += l
	hash, l = binary.Varint(buf[n:])
	if l <= 0 {
		return nil, nil, 0, nil, 0, ErrTruncated
	}
	n += l
	args, l, err = decodeView(buf[n:])
	if err != nil {
		return nil, nil, 0, nil, 0, err
	}
	return class, method, hash, args[:len(args):len(args)], n + l, nil
}

// DecodeSlot decodes a ring submission: one flags byte followed by
// exactly one call record, whose Args alias buf.
func DecodeSlot(buf []byte) (c Call, flags byte, err error) {
	if len(buf) == 0 {
		return Call{}, 0, ErrTruncated
	}
	c, n, err := DecodeCall(buf[1:])
	if err != nil {
		return Call{}, 0, err
	}
	if 1+n != len(buf) {
		return Call{}, 0, fmt.Errorf("%w: %d after the call slot", ErrTrailing, len(buf)-1-n)
	}
	return c, buf[0], nil
}
