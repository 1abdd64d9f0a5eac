// Package wire implements the serialization format used to copy neutral
// values across the enclave boundary.
//
// In the paper (§5.2), parameters of relay methods are restricted to
// primitive types, pointers to serialized buffers of neutral objects, and
// proxy/mirror hashes. This package provides exactly that vocabulary: a
// tagged Value union (null, bool, int, float, string, bytes, list,
// object reference) and a compact binary encoding used by the edge
// routines that marshal data into and out of the enclave.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// Value kinds. KindInvalid is the zero Value's kind.
const (
	KindInvalid Kind = iota
	KindNull
	KindBool
	KindInt
	KindFloat
	KindString
	KindBytes
	KindList
	// Tag 8 is unused and decodes as an unknown tag; KindRef keeps 9 so
	// that encoded values, sealed blobs and WAL records read the same.
	_
	// KindRef is a cross-runtime object reference: the identity hash of a
	// proxy/mirror pair plus its class name (§5.2 "the hash of the
	// corresponding proxy is passed as parameter").
	KindRef
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindList:
		return "list"
	case KindRef:
		return "ref"
	default:
		return "invalid"
	}
}

// MaxDepth bounds how deeply lists may nest: a scalar has depth 0, a
// list one more than its deepest element. The decoder rejects deeper
// input with ErrTooDeep before recursing into it, and List refuses to
// build a deeper value, so no walk over a Value (Append, Size,
// Equal, String) recurses further than MaxDepth frames. The world bounds
// neutral values at 32 levels and the protocols add two or three lists of
// their own, so nothing legitimate comes near it.
const MaxDepth = 64

// Errors returned by decoding.
var (
	ErrTruncated = errors.New("wire: truncated input")
	ErrBadTag    = errors.New("wire: unknown type tag")
	ErrTooDeep   = errors.New("wire: value nested deeper than MaxDepth")
	ErrTrailing  = errors.New("wire: trailing bytes")
)

// Value is an immutable tagged union of the types that may cross the
// enclave boundary. It is five words (40 bytes), so passing and returning
// one by value — which every Env call, field access and decode step does —
// stays in registers:
//
//	kind   depth  w                    s             p
//	null   0      -                    -             -
//	bool   0      0 or 1               -             -
//	int    0      the integer          -             -
//	float  0      IEEE-754 bits        -             -
//	string 0      -                    the payload   -
//	ref    0      identity hash        class name    -    (+ hd)
//	bytes  0      length               -             first byte
//	list   1+max  element count        -             first element (Value)
//
// An aggregate payload sits behind the one pointer p, with its length in
// w: the backing array is allocated once by the constructor or the
// decoder, never reachable for writing from outside this package, and
// shared freely between copies of the Value. Callers get at it through
// Index (one element, by value) or AsBytes/AsList (a copy of the whole
// payload); nothing hands out the array itself.
//
// A ref may also carry hd, in the six bytes the layout would otherwise
// pad: the low 48 bits of the heap handle by which the runtime that made
// the ref holds its object (WithHandle). It is a host-side hint the
// runtime checks before it trusts it; the encoding, Equal and String
// ignore it, and Ref makes a ref without one.
type Value struct {
	kind  Kind
	depth uint8
	hdLo  uint16
	hdHi  uint32
	w     uint64
	s     string
	p     unsafe.Pointer
}

// The two views of an aggregate payload. Each is valid only for its own
// kind; every caller switches on kind first.
func (v Value) bytes() []byte  { return unsafe.Slice((*byte)(v.p), int(v.w)) }
func (v Value) elems() []Value { return unsafe.Slice((*Value)(v.p), int(v.w)) }

// Null returns the null value.
func Null() Value { return Value{kind: KindNull} }

// Bool wraps a boolean.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.w = 1
	}
	return v
}

// Int wraps a 64-bit integer.
func Int(i int64) Value { return Value{kind: KindInt, w: uint64(i)} }

// Float wraps a 64-bit float.
func Float(f float64) Value { return Value{kind: KindFloat, w: math.Float64bits(f)} }

// Str wraps a string.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Bytes wraps a byte slice; the slice is copied so the Value is immutable.
func Bytes(b []byte) Value {
	cp := make([]byte, len(b))
	copy(cp, b)
	return bytesOf(cp)
}

// bytesOf wraps a byte slice the caller gives up.
func bytesOf(owned []byte) Value {
	return Value{kind: KindBytes, w: uint64(len(owned)), p: unsafe.Pointer(unsafe.SliceData(owned))}
}

// List wraps a sequence of values; the slice is copied. It panics with
// ErrTooDeep when the result would nest deeper than MaxDepth.
func List(vs ...Value) Value {
	cp := make([]Value, len(vs))
	copy(cp, vs)
	v, err := listOf(cp)
	if err != nil {
		panic(err)
	}
	return v
}

// listOf wraps an element slice the caller gives up.
func listOf(owned []Value) (Value, error) {
	var deepest uint8
	for i := range owned {
		deepest = max(deepest, owned[i].depth)
	}
	if deepest >= MaxDepth {
		return Value{}, ErrTooDeep
	}
	return Value{kind: KindList, depth: deepest + 1, w: uint64(len(owned)), p: unsafe.Pointer(unsafe.SliceData(owned))}, nil
}

// Ref wraps a cross-runtime object reference.
func Ref(class string, hash int64) Value {
	return Value{kind: KindRef, w: uint64(hash), s: class}
}

// WithHandle returns ref v carrying the low 48 bits of hd (see Value);
// any other value is returned as it is.
func (v Value) WithHandle(hd uint64) Value {
	if v.kind == KindRef {
		v.hdLo, v.hdHi = uint16(hd), uint32(hd>>16)
	}
	return v
}

// Handle returns the handle bits a ref carries: 0 for none, and for any
// value that is not a ref.
func (v Value) Handle() uint64 {
	return uint64(v.hdHi)<<16 | uint64(v.hdLo)
}

// MapRefs returns v with every object reference in it — v itself, or one
// nested at any depth of lists — replaced by rename(ref).
// It is the one walk that renames references where they cross from one
// handle namespace into another; the first error stops it.
func MapRefs(v Value, rename func(ref Value) (Value, error)) (Value, error) {
	var err error
	switch v.kind {
	case KindRef:
		return rename(v)
	case KindList:
		out := make([]Value, v.w)
		for i, el := range v.elems() {
			if out[i], err = MapRefs(el, rename); err != nil {
				return Value{}, err
			}
		}
		return listOf(out)
	}
	return v, nil
}

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null (or invalid).
func (v Value) IsNull() bool { return v.kind == KindNull || v.kind == KindInvalid }

// AsBool returns the boolean payload; ok is false on kind mismatch.
func (v Value) AsBool() (b bool, ok bool) {
	if v.kind != KindBool {
		return false, false
	}
	return v.w != 0, true
}

// AsInt returns the integer payload; ok is false on kind mismatch.
func (v Value) AsInt() (i int64, ok bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return int64(v.w), true
}

// AsFloat returns the float payload; ok is false on kind mismatch.
func (v Value) AsFloat() (f float64, ok bool) {
	if v.kind != KindFloat {
		return 0, false
	}
	return math.Float64frombits(v.w), true
}

// AsStr returns the string payload; ok is false on kind mismatch.
func (v Value) AsStr() (s string, ok bool) {
	if v.kind != KindString {
		return "", false
	}
	return v.s, true
}

// AsBytes returns a copy of the bytes payload; ok is false on mismatch.
func (v Value) AsBytes() (b []byte, ok bool) {
	if v.kind != KindBytes {
		return nil, false
	}
	cp := make([]byte, v.w)
	copy(cp, v.bytes())
	return cp, true
}

// AsList returns a copy of the list payload; ok is false on mismatch.
// A reader that only walks the list uses Len and Index, which copy
// nothing.
func (v Value) AsList() (vs []Value, ok bool) {
	if v.kind != KindList {
		return nil, false
	}
	cp := make([]Value, v.w)
	copy(cp, v.elems())
	return cp, true
}

// AsRef returns the reference payload; ok is false on mismatch.
func (v Value) AsRef() (class string, hash int64, ok bool) {
	if v.kind != KindRef {
		return "", 0, false
	}
	return v.s, int64(v.w), true
}

// Index returns element i of a list value, for 0 <= i < Len(). It panics
// like a slice index when i is out of range or v is not a list.
func (v Value) Index(i int) Value {
	if v.kind != KindList {
		panic("wire: Index of a " + v.kind.String() + " value")
	}
	return v.elems()[i]
}

// Len returns the number of elements of a list, bytes or string value,
// and 0 otherwise.
func (v Value) Len() int {
	switch v.kind {
	case KindList, KindBytes:
		return int(v.w)
	case KindString:
		return len(v.s)
	default:
		return 0
	}
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull, KindInvalid:
		return true
	case KindBool, KindInt:
		return v.w == o.w
	case KindFloat:
		vf, of := math.Float64frombits(v.w), math.Float64frombits(o.w)
		return vf == of || (math.IsNaN(vf) && math.IsNaN(of))
	case KindString:
		return v.s == o.s
	case KindBytes:
		return string(v.bytes()) == string(o.bytes())
	case KindList:
		ve, oe := v.elems(), o.elems()
		if len(ve) != len(oe) {
			return false
		}
		for i := range ve {
			if !ve[i].Equal(oe[i]) {
				return false
			}
		}
		return true
	case KindRef:
		return v.w == o.w && v.s == o.s
	default:
		return false
	}
}

// String renders the value for diagnostics.
func (v Value) String() string {
	var sb strings.Builder
	v.format(&sb)
	return sb.String()
}

func (v Value) format(sb *strings.Builder) {
	switch v.kind {
	case KindNull, KindInvalid:
		sb.WriteString("null")
	case KindBool:
		sb.WriteString(strconv.FormatBool(v.w != 0))
	case KindInt:
		sb.WriteString(strconv.FormatInt(int64(v.w), 10))
	case KindFloat:
		sb.WriteString(strconv.FormatFloat(math.Float64frombits(v.w), 'g', -1, 64))
	case KindString:
		sb.WriteString(strconv.Quote(v.s))
	case KindBytes:
		fmt.Fprintf(sb, "bytes[%d]", v.w)
	case KindList:
		sb.WriteByte('[')
		for i, e := range v.elems() {
			if i > 0 {
				sb.WriteString(", ")
			}
			e.format(sb)
		}
		sb.WriteByte(']')
	case KindRef:
		fmt.Fprintf(sb, "ref(%s#%d)", v.s, int64(v.w))
	}
}

// Append encodes v onto dst and returns the extended slice.
func Append(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull, KindInvalid:
	case KindBool:
		dst = append(dst, byte(v.w))
	case KindInt:
		dst = binary.AppendVarint(dst, int64(v.w))
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, v.w)
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	case KindBytes:
		dst = binary.AppendUvarint(dst, v.w)
		dst = append(dst, v.bytes()...)
	case KindList:
		dst = binary.AppendUvarint(dst, v.w)
		for _, e := range v.elems() {
			dst = Append(dst, e)
		}
	case KindRef:
		dst = binary.AppendVarint(dst, int64(v.w))
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

// Marshal encodes v into a fresh buffer.
func Marshal(v Value) []byte {
	return Append(make([]byte, 0, 64), v)
}

// MarshalList encodes a sequence of values (e.g. a relay-method argument
// vector) into a fresh exact-size buffer.
func MarshalList(vs []Value) []byte {
	return AppendValues(make([]byte, 0, SizeValues(vs)), vs)
}

// Unmarshal decodes one value from the front of buf, returning the value
// and the number of bytes consumed. The value aliases nothing in buf.
func Unmarshal(buf []byte) (Value, int, error) {
	return unmarshal(buf, 0)
}

// unmarshal decodes one value that sits inside enclosing aggregates.
func unmarshal(buf []byte, enclosing int) (Value, int, error) {
	if len(buf) == 0 {
		return Value{}, 0, ErrTruncated
	}
	kind := Kind(buf[0])
	n := 1
	switch kind {
	case KindNull:
		return Null(), n, nil
	case KindBool:
		if len(buf) < n+1 {
			return Value{}, 0, ErrTruncated
		}
		return Bool(buf[n] != 0), n + 1, nil
	case KindInt:
		i, c := binary.Varint(buf[n:])
		if c <= 0 {
			return Value{}, 0, ErrTruncated
		}
		return Int(i), n + c, nil
	case KindFloat:
		if len(buf) < n+8 {
			return Value{}, 0, ErrTruncated
		}
		return Value{kind: KindFloat, w: binary.LittleEndian.Uint64(buf[n:])}, n + 8, nil
	case KindString:
		s, c, err := decodeView(buf[n:])
		if err != nil {
			return Value{}, 0, err
		}
		return Str(string(s)), n + c, nil
	case KindBytes:
		b, c, err := decodeBytes(buf[n:])
		if err != nil {
			return Value{}, 0, err
		}
		return bytesOf(b), n + c, nil
	case KindList:
		// The nesting check comes before the count is read, let alone
		// honoured: a frame of nothing but list headers is refused
		// at the first level too deep, having allocated MaxDepth slices.
		if enclosing >= MaxDepth {
			return Value{}, 0, ErrTooDeep
		}
		count, c := binary.Uvarint(buf[n:])
		if c <= 0 {
			return Value{}, 0, ErrTruncated
		}
		n += c
		// Clamp the preallocation to what the buffer could possibly
		// hold (>= 1 byte per element): the count is attacker data and
		// must not drive a huge allocation before validation.
		elems := make([]Value, 0, clampCount(count, len(buf)-n))
		for i := uint64(0); i < count; i++ {
			e, c, err := unmarshal(buf[n:], enclosing+1)
			if err != nil {
				return Value{}, 0, err
			}
			elems = append(elems, e)
			n += c
		}
		v, err := listOf(elems)
		return v, n, err
	case KindRef:
		hash, c := binary.Varint(buf[n:])
		if c <= 0 {
			return Value{}, 0, ErrTruncated
		}
		n += c
		class, c, err := decodeView(buf[n:])
		if err != nil {
			return Value{}, 0, err
		}
		return Ref(string(class), hash), n + c, nil
	default:
		return Value{}, 0, fmt.Errorf("%w: %d", ErrBadTag, kind)
	}
}

// UnmarshalList decodes a buffer produced by MarshalList. The returned
// slice is the caller's own: it is the one the decoder filled, and the
// list value around it is dropped here.
func UnmarshalList(buf []byte) ([]Value, error) {
	v, n, err := Unmarshal(buf)
	if err != nil {
		return nil, err
	}
	if n != len(buf) {
		return nil, fmt.Errorf("%w: %d after the value list", ErrTrailing, len(buf)-n)
	}
	if v.kind != KindList {
		return nil, fmt.Errorf("wire: expected list, got %s", v.Kind())
	}
	return v.elems(), nil
}

// clampCount bounds an attacker-supplied element count by the remaining
// buffer bytes, preventing allocation bombs in the decoder.
func clampCount(count uint64, remaining int) int {
	if remaining < 0 {
		return 0
	}
	if count > uint64(remaining) {
		return remaining
	}
	return int(count)
}

// decodeView decodes a length-prefixed byte string as a view into buf;
// the caller copies what it keeps (string(view) is that one copy).
func decodeView(buf []byte) ([]byte, int, error) {
	l, c := binary.Uvarint(buf)
	if c <= 0 {
		return nil, 0, ErrTruncated
	}
	if uint64(len(buf)-c) < l {
		return nil, 0, ErrTruncated
	}
	return buf[c : c+int(l)], c + int(l), nil
}

// decodeBytes is decodeView with the bytes copied out.
func decodeBytes(buf []byte) ([]byte, int, error) {
	view, n, err := decodeView(buf)
	if err != nil {
		return nil, 0, err
	}
	out := make([]byte, len(view))
	copy(out, view)
	return out, n, nil
}
