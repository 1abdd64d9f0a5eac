package wire

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	tests := []struct {
		name string
		v    Value
	}{
		{name: "null", v: Null()},
		{name: "true", v: Bool(true)},
		{name: "false", v: Bool(false)},
		{name: "zero", v: Int(0)},
		{name: "negative", v: Int(-123456789)},
		{name: "max int", v: Int(math.MaxInt64)},
		{name: "min int", v: Int(math.MinInt64)},
		{name: "float", v: Float(3.14159)},
		{name: "neg inf", v: Float(math.Inf(-1))},
		{name: "nan", v: Float(math.NaN())},
		{name: "empty string", v: Str("")},
		{name: "string", v: Str("hello, enclave")},
		{name: "unicode", v: Str("héllo∀")},
		{name: "bytes", v: Bytes([]byte{0, 1, 2, 255})},
		{name: "empty bytes", v: Bytes(nil)},
		{name: "ref", v: Ref("Account", 424242)},
		{name: "negative ref hash", v: Ref("X", -7)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			buf := Marshal(tt.v)
			got, n, err := Unmarshal(buf)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if n != len(buf) {
				t.Fatalf("consumed %d of %d bytes", n, len(buf))
			}
			if !got.Equal(tt.v) {
				t.Fatalf("round trip: got %v, want %v", got, tt.v)
			}
		})
	}
}

func TestRoundTripComposites(t *testing.T) {
	v := List(
		Int(1),
		Str("two"),
		List(Bool(true), Null()),
		List(Str("k0"), Bytes([]byte("x"))),
		Ref("Registry", 99),
	)
	buf := Marshal(v)
	got, n, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if !got.Equal(v) {
		t.Fatalf("round trip: got %v, want %v", got, v)
	}
}

func TestAccessorsKindMismatch(t *testing.T) {
	v := Int(5)
	if _, ok := v.AsStr(); ok {
		t.Fatal("AsStr on int reported ok")
	}
	if _, ok := v.AsBool(); ok {
		t.Fatal("AsBool on int reported ok")
	}
	if _, ok := v.AsList(); ok {
		t.Fatal("AsList on int reported ok")
	}
	if _, _, ok := v.AsRef(); ok {
		t.Fatal("AsRef on int reported ok")
	}
	if i, ok := v.AsInt(); !ok || i != 5 {
		t.Fatalf("AsInt = %d,%v", i, ok)
	}
}

func TestValueImmutability(t *testing.T) {
	src := []byte{1, 2, 3}
	v := Bytes(src)
	src[0] = 99
	got, _ := v.AsBytes()
	if got[0] != 1 {
		t.Fatal("Bytes did not copy input")
	}
	got[1] = 99
	got2, _ := v.AsBytes()
	if got2[1] != 2 {
		t.Fatal("AsBytes did not copy output")
	}

	elems := []Value{Int(1)}
	lv := List(elems...)
	elems[0] = Int(9)
	l, _ := lv.AsList()
	if !l[0].Equal(Int(1)) {
		t.Fatal("List did not copy input")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	tests := []struct {
		name string
		buf  []byte
	}{
		{name: "empty", buf: nil},
		{name: "bad tag", buf: []byte{0xEE}},
		{name: "truncated bool", buf: []byte{byte(KindBool)}},
		{name: "truncated float", buf: []byte{byte(KindFloat), 1, 2}},
		{name: "truncated string", buf: []byte{byte(KindString), 10, 'a'}},
		{name: "truncated list elem", buf: []byte{byte(KindList), 2, byte(KindInt), 2}},
		{name: "truncated ref", buf: []byte{byte(KindRef), 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := Unmarshal(tt.buf); err == nil {
				t.Fatal("Unmarshal accepted malformed input")
			}
		})
	}
}

// TestTagEightIsUnknown: 8 tags no kind, so a value carrying it fails
// with ErrBadTag wherever it is decoded, whatever bytes follow.
func TestTagEightIsUnknown(t *testing.T) {
	// Three key/value entries, the first and last with the same key.
	entries := []byte{8, 3, 2, 'k', '1', 3, 2, 2, 'k', '0', 3, 4, 2, 'k', '1', 3, 6}
	inList := append([]byte{byte(KindList), 2, byte(KindInt), 2}, entries...)
	frame := appendFrame(nil, []Call{{Class: "C", Method: "m", Hash: 1, Args: inList}})
	tests := []struct {
		name   string
		decode func() error
	}{
		{"top level", func() error { _, _, err := Unmarshal(entries); return err }},
		{"top level, empty", func() error { _, _, err := Unmarshal([]byte{8, 0}); return err }},
		{"in a list", func() error { _, _, err := Unmarshal(inList); return err }},
		{"argument vector", func() error { _, err := UnmarshalList(inList); return err }},
		{"batch frame record", func() error {
			f, err := ReadFrame(frame)
			if err != nil {
				return err
			}
			c, ok := f.Next()
			if !ok {
				return errors.New("frame yielded no record")
			}
			_, err = UnmarshalList(c.Args)
			return err
		}},
	}
	for _, tt := range tests {
		if err := tt.decode(); !errors.Is(err, ErrBadTag) {
			t.Errorf("%s: err = %v, want ErrBadTag", tt.name, err)
		}
	}
}

func TestUnmarshalListRejectsTrailing(t *testing.T) {
	buf := MarshalList([]Value{Int(1)})
	buf = append(buf, 0x00)
	if _, err := UnmarshalList(buf); err == nil {
		t.Fatal("UnmarshalList accepted trailing bytes")
	}
}

func TestUnmarshalListRejectsNonList(t *testing.T) {
	if _, err := UnmarshalList(Marshal(Int(1))); err == nil {
		t.Fatal("UnmarshalList accepted scalar")
	}
}

func TestLen(t *testing.T) {
	if List(Int(1), Int(2)).Len() != 2 {
		t.Fatal("list len")
	}
	if Str("abc").Len() != 3 {
		t.Fatal("string len")
	}
	if Int(7).Len() != 0 {
		t.Fatal("scalar len")
	}
}

// randomValue builds an arbitrary Value of bounded depth for property
// testing.
func randomValue(r *rand.Rand, depth int) Value {
	kinds := []Kind{KindNull, KindBool, KindInt, KindFloat, KindString, KindBytes, KindRef}
	if depth > 0 {
		kinds = append(kinds, KindList)
	}
	switch kinds[r.Intn(len(kinds))] {
	case KindNull:
		return Null()
	case KindBool:
		return Bool(r.Intn(2) == 0)
	case KindInt:
		return Int(r.Int63() - r.Int63())
	case KindFloat:
		return Float(r.NormFloat64())
	case KindString:
		b := make([]byte, r.Intn(20))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return Str(string(b))
	case KindBytes:
		b := make([]byte, r.Intn(20))
		r.Read(b)
		return Bytes(b)
	case KindRef:
		return Ref("C", r.Int63())
	default: // KindList
		n := r.Intn(5)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return List(elems...)
	}
}

// Property: every generated value round-trips exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		got, n, err := Unmarshal(Marshal(v))
		if err != nil {
			return false
		}
		return n == len(Marshal(v)) && got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: encoding is deterministic (canonical), so identical values
// produce identical buffers.
func TestQuickDeterministicEncoding(t *testing.T) {
	f := func(seed int64) bool {
		r1 := rand.New(rand.NewSource(seed))
		r2 := rand.New(rand.NewSource(seed))
		v1 := randomValue(r1, 3)
		v2 := randomValue(r2, 3)
		return reflect.DeepEqual(Marshal(v1), Marshal(v2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
