package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"testing"
	"unsafe"
)

// TestValueSize pins the representation: a Value is passed and returned
// by value on every Env call, so it must stay five words.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 40 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want <= 40", got)
	}
}

// TestMarshalGolden pins the encoding of every kind to the bytes the
// 136-byte representation produced (captured at commit d4dbcbc): the
// layout of Value is a host-side matter and nothing on the wire, in a
// WAL record or in a sealed blob may move with it.
func TestMarshalGolden(t *testing.T) {
	cases := []struct {
		name string
		v    Value
		want string
	}{
		{"invalid", Value{}, "00"},
		{"null", Null(), "01"},
		{"true", Bool(true), "0201"},
		{"false", Bool(false), "0200"},
		{"int zero", Int(0), "0300"},
		{"int negative", Int(-123456789), "03a9b4de75"},
		{"int max", Int(math.MaxInt64), "03feffffffffffffffff01"},
		{"int min", Int(math.MinInt64), "03ffffffffffffffffff01"},
		{"float", Float(3.14159), "046e861bf0f9210940"},
		{"float -inf", Float(math.Inf(-1)), "04000000000000f0ff"},
		{"string empty", Str(""), "0500"},
		{"string unicode", Str("héllo∀"), "050968c3a96c6c6fe28880"},
		{"bytes empty", Bytes(nil), "0600"},
		{"bytes", Bytes([]byte{0, 1, 2, 255}), "0604000102ff"},
		{"list empty", List(), "0700"},
		{"list nested", List(Int(1), Str("two"), List(Bool(true), Null())), "07030302050374776f0702020101"},
		{"ref", Ref("Account", 424242), "09e4e433074163636f756e74"},
		{"ref negative", Ref("X", -7), "090d0158"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(Marshal(c.v)); got != c.want {
			t.Errorf("%s: Marshal = %s, want %s", c.name, got, c.want)
		}
		if got := Size(c.v); got != len(c.want)/2 {
			t.Errorf("%s: Size = %d, want %d", c.name, got, len(c.want)/2)
		}
	}
	const putArgs = "07020509757365723a30303031051273657373696f6e2d746f6b656e2d30303031"
	if got := hex.EncodeToString(MarshalList(putArgVector())); got != putArgs {
		t.Errorf("MarshalList(put args) = %s, want %s", got, putArgs)
	}
	// The streaming helpers spell the same bytes.
	streamed := AppendListHeader(nil, 2)
	for _, v := range putArgVector() {
		streamed = Append(streamed, v)
	}
	if got := hex.EncodeToString(streamed); got != putArgs {
		t.Errorf("AppendListHeader + Append = %s, want %s", got, putArgs)
	}
	blob := []byte{0, 1, 2, 255}
	if got, want := append(AppendBytesHeader(nil, len(blob)), blob...), Marshal(Bytes(blob)); !bytes.Equal(got, want) {
		t.Errorf("AppendBytesHeader + payload = %x, want %x", got, want)
	}
}

// putArgVector is the argument vector of a KV put as the gateway sees it.
func putArgVector() []Value {
	return []Value{Str("user:0001"), Str("session-token-0001")}
}

// TestCopyOnExport checks both directions of the immutability contract
// for every aggregate: a Value built from a caller's slice keeps its own
// copy, and what an accessor hands out is a copy too.
func TestCopyOnExport(t *testing.T) {
	raw := []byte{1, 2, 3}
	bv := Bytes(raw)
	raw[0] = 9
	out, _ := bv.AsBytes()
	out[1] = 9
	if again, _ := bv.AsBytes(); !bytes.Equal(again, []byte{1, 2, 3}) {
		t.Fatalf("bytes value changed under its caller: %v", again)
	}

	elems := []Value{Int(1), Int(2)}
	lv := List(elems...)
	elems[0] = Int(9)
	got, _ := lv.AsList()
	got[1] = Int(9)
	if !lv.Index(0).Equal(Int(1)) || !lv.Index(1).Equal(Int(2)) {
		t.Fatalf("list value changed under its caller: %v", lv)
	}

	// A copy of a Value shares the payload; neither copy can write it.
	alias := lv
	if !alias.Equal(lv) || alias.Len() != 2 {
		t.Fatalf("copied list differs: %v vs %v", alias, lv)
	}
}

// TestDecodedValueDoesNotAliasBuffer: frame buffers go back to a pool as
// soon as they are decoded, so no decoded payload may point into them.
func TestDecodedValueDoesNotAliasBuffer(t *testing.T) {
	want := List(Str("key"), Bytes([]byte{1, 2, 3}), Ref("Cls", 7), List(Str("v")))
	buf := Marshal(want)
	got, _, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := UnmarshalList(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xAA
	}
	if !got.Equal(want) {
		t.Fatalf("decoded value changed with its buffer: %v", got)
	}
	if !List(vs...).Equal(want) {
		t.Fatalf("decoded list changed with its buffer: %v", vs)
	}
}

// nested returns the encoding of depth one-element lists around a null.
func nested(depth int) []byte {
	return append(bytes.Repeat([]byte{byte(KindList), 1}, depth), byte(KindNull))
}

func TestUnmarshalDepthBound(t *testing.T) {
	v, n, err := Unmarshal(nested(MaxDepth))
	if err != nil || n != len(nested(MaxDepth)) {
		t.Fatalf("nested MaxDepth deep: n=%d err=%v", n, err)
	}
	// What the decoder accepts, every walk handles.
	if got := Marshal(v); !bytes.Equal(got, nested(MaxDepth)) {
		t.Fatal("re-encoding differs")
	}
	if !v.Equal(v) || Size(v) != n || v.String() == "" {
		t.Fatal("walks disagree on a MaxDepth-deep value")
	}
	if _, _, err := Unmarshal(nested(MaxDepth + 1)); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("nested MaxDepth+1 deep: err = %v, want ErrTooDeep", err)
	}
	if _, err := UnmarshalList(nested(MaxDepth + 1)); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("UnmarshalList: err = %v, want ErrTooDeep", err)
	}

	// The frame that killed the process: 4 MiB of list headers, which a
	// fabric peer frame or any ecall buffer can carry. It is refused at
	// level MaxDepth+1, whatever follows.
	hostile := bytes.Repeat([]byte{byte(KindList), 1}, 2<<20)
	if _, _, err := Unmarshal(hostile); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("hostile frame: err = %v, want ErrTooDeep", err)
	}
	allocs := testing.AllocsPerRun(10, func() { _, _, _ = Unmarshal(hostile) })
	if allocs > MaxDepth+1 {
		t.Fatalf("hostile frame cost %v allocations, want <= %d", allocs, MaxDepth+1)
	}
}

// TestConstructorsRefuseTooDeep: what cannot be decoded cannot be built,
// so Append, Size, Equal and String never recurse past MaxDepth.
func TestConstructorsRefuseTooDeep(t *testing.T) {
	mustPanic := func(name string, build func()) {
		t.Helper()
		defer func() {
			err, _ := recover().(error)
			if !errors.Is(err, ErrTooDeep) {
				t.Fatalf("%s: recovered %v, want ErrTooDeep", name, err)
			}
		}()
		build()
	}
	v := Null()
	for i := 0; i < MaxDepth; i++ {
		v = List(v)
	}
	if _, _, err := Unmarshal(Marshal(v)); err != nil {
		t.Fatalf("a MaxDepth-deep value must round-trip: %v", err)
	}
	mustPanic("List", func() { List(v) })
}

// TestUnmarshalListAllocs: decoding a put's argument vector costs the
// slice and one allocation per string, nothing per copy.
func TestUnmarshalListAllocs(t *testing.T) {
	buf := MarshalList(putArgVector())
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := UnmarshalList(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("UnmarshalList(put args) = %v allocs, want <= 3", allocs)
	}
}

// TestMapRefs: the walk reaches a reference wherever it sits — bare, in a
// list, in a list inside a list — leaves everything else
// and the input alone, and stops at the first error.
func TestMapRefs(t *testing.T) {
	rename := func(ref Value) (Value, error) {
		class, hash, _ := ref.AsRef()
		if hash < 0 {
			return Value{}, ErrBadTag
		}
		return Ref(class, hash+100), nil
	}
	in := List(
		Ref("A", 1),
		Str("s"),
		List(Ref("B", 2), List(Ref("C", 3), Bytes([]byte{9}))),
		List(List(Ref("D", 4))),
		List(), Null(),
	)
	want := List(
		Ref("A", 101),
		Str("s"),
		List(Ref("B", 102), List(Ref("C", 103), Bytes([]byte{9}))),
		List(List(Ref("D", 104))),
		List(), Null(),
	)
	before := Marshal(in)
	got, err := MapRefs(in, rename)
	if err != nil || !got.Equal(want) {
		t.Fatalf("MapRefs = %v, %v\nwant %v", got, err, want)
	}
	if !bytes.Equal(Marshal(got), Marshal(want)) || !bytes.Equal(Marshal(in), before) {
		t.Fatal("result does not encode as built, or the input moved")
	}
	if got, err := MapRefs(Ref("A", 1), rename); err != nil || !got.Equal(Ref("A", 101)) {
		t.Fatalf("bare ref: %v, %v", got, err)
	}
	for _, bad := range []Value{
		Ref("X", -1),
		List(Ref("A", 1), Ref("X", -1)),
		List(List(Ref("A", 1)), List(Ref("X", -1))),
		List(List(List(Ref("X", -1)))),
	} {
		if _, err := MapRefs(bad, rename); !errors.Is(err, ErrBadTag) {
			t.Fatalf("MapRefs(%v) = %v, want the rename error", bad, err)
		}
	}
	// A rename that deepens a value already at the limit is an error,
	// not a panic.
	deep := Ref("A", 1)
	for i := 0; i < MaxDepth; i++ {
		deep = List(deep)
	}
	if _, err := MapRefs(deep, func(Value) (Value, error) { return List(Int(1)), nil }); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("deepening rename: %v, want ErrTooDeep", err)
	}
}
