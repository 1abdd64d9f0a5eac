package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file is the wire vocabulary of the zero-copy ring data plane
// (internal/ring): the fixed-capacity "slot" encoder and the
// single-call submission format.
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
	// marshalled result vector; batched void calls leave it clear so
	// the consumer skips (and never charges for) result serialization.
	CallWantResult = 1 << 0
)

// CallSize returns the exact slot bytes of one ring submission: the
// call header (flags, class, method, hash, argument length prefix)
// followed by argsLen bytes of marshalled arguments. Pass
// SizeValues(args) as argsLen to size a zero-copy encode.
func CallSize(class, method string, hash int64, argsLen int) int {
	return 1 + // flags
		uvarintLen(uint64(len(class))) + len(class) +
		uvarintLen(uint64(len(method))) + len(method) +
		varintLen(hash) +
		uvarintLen(uint64(argsLen)) + argsLen
}

// AppendCallHeader encodes a ring-call header onto dst: flags,
// length-prefixed class and method names, the varint receiver hash and
// the argument byte-length prefix. The caller appends exactly argsLen
// marshalled argument bytes afterwards — for the zero-copy path via
// AppendValues straight into the slot, with the length prefix trusted
// from the exact-size precompute.
func AppendCallHeader(dst []byte, class, method string, hash int64, flags byte, argsLen int) []byte {
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(class)))
	dst = append(dst, class...)
	dst = binary.AppendUvarint(dst, uint64(len(method)))
	dst = append(dst, method...)
	dst = binary.AppendVarint(dst, hash)
	dst = binary.AppendUvarint(dst, uint64(argsLen))
	return dst
}

// DecodeCall decodes a ring submission: an AppendCallHeader header
// followed by its argument bytes. The returned args slice ALIASES
// buf — the zero-copy read side — so it is valid only until the slot is
// reused; class and method are copies.
func DecodeCall(buf []byte) (class, method string, hash int64, flags byte, args []byte, err error) {
	if len(buf) == 0 {
		return "", "", 0, 0, nil, ErrTruncated
	}
	flags, n := buf[0], 1
	cb, l, err := decodeView(buf[n:])
	if err != nil {
		return "", "", 0, 0, nil, err
	}
	class, n = string(cb), n+l
	mb, l, err := decodeView(buf[n:])
	if err != nil {
		return "", "", 0, 0, nil, err
	}
	method, n = string(mb), n+l
	hash, l = binary.Varint(buf[n:])
	if l <= 0 {
		return "", "", 0, 0, nil, ErrTruncated
	}
	n += l
	argsLen, l := binary.Uvarint(buf[n:])
	if l <= 0 || uint64(len(buf)-n-l) < argsLen {
		return "", "", 0, 0, nil, ErrTruncated
	}
	n += l
	args = buf[n : n+int(argsLen)]
	if n+int(argsLen) != len(buf) {
		return "", "", 0, 0, nil, fmt.Errorf("wire: %d trailing call-slot bytes", len(buf)-n-int(argsLen))
	}
	return class, method, hash, flags, args, nil
}
