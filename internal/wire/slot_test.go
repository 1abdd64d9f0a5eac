package wire

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// allKindValues returns one representative value of every kind,
// including nested composites — the corpus for the exact-size invariant
// the in-place slot writer relies on.
func allKindValues() []Value {
	return []Value{
		Null(),
		Bool(true),
		Bool(false),
		Int(0),
		Int(-1),
		Int(math.MaxInt64),
		Int(math.MinInt64),
		Float(3.14159),
		Float(math.Inf(-1)),
		Float(math.NaN()),
		Str(""),
		Str("héllo wörld"),
		Bytes(nil),
		Bytes(bytes.Repeat([]byte{0xAB}, 300)),
		Ref("app.Account", 42),
		Ref("", math.MinInt64),
		List(),
		List(Int(1), Str("x"), Ref("C", 9)),
		List(List(List(Bool(true)))),
		Map(),
		Map(Pair{Key: "k", Val: Float(1.5)}, Pair{Key: "a", Val: List(Int(7))}),
	}
}

// TestExactSizeInvariant is the contract the zero-copy slot writers
// trust: len(AppendValues(nil, vs)) == SizeValues(vs) for every value
// kind, so a capacity check against the precomputed size guarantees the
// append never reallocates.
func TestExactSizeInvariant(t *testing.T) {
	all := allKindValues()
	// Every kind individually...
	for _, v := range all {
		vs := []Value{v}
		if got, want := len(AppendValues(nil, vs)), SizeValues(vs); got != want {
			t.Errorf("kind %s: encoded %d bytes, SizeValues says %d", v.Kind(), got, want)
		}
	}
	// ...the full mixed vector, and the empty vector.
	for _, vs := range [][]Value{all, nil} {
		if got, want := len(AppendValues(nil, vs)), SizeValues(vs); got != want {
			t.Errorf("vector of %d: encoded %d bytes, SizeValues says %d", len(vs), got, want)
		}
	}
}

// TestExactSizeInvariantQuick extends the invariant over the randomized
// value generator shared with the fuzz corpus seeds.
func TestExactSizeInvariantQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vs := make([]Value, r.Intn(5))
		for i := range vs {
			vs[i] = randomValue(r, 3)
		}
		return len(AppendValues(nil, vs)) == SizeValues(vs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestExactSizeInvariantFuzzCorpus replays the fuzz seed corpus through
// the invariant: any value the decoder accepts must re-encode at
// exactly its computed size.
func TestExactSizeInvariantFuzzCorpus(t *testing.T) {
	seeds := [][]byte{
		Marshal(Null()),
		Marshal(Int(-12345)),
		Marshal(Str("hello")),
		Marshal(Bytes([]byte{1, 2, 3})),
		Marshal(List(Int(1), Str("x"), Ref("C", 9))),
		Marshal(Map(Pair{Key: "k", Val: Float(1.5)})),
		MarshalList([]Value{Int(1), List(Bool(true))}),
	}
	for _, s := range seeds {
		v, _, err := Unmarshal(s)
		if err != nil {
			t.Fatalf("corpus seed failed to decode: %v", err)
		}
		vs := []Value{v}
		if got, want := len(AppendValues(nil, vs)), SizeValues(vs); got != want {
			t.Errorf("corpus value %v: encoded %d, sized %d", v, got, want)
		}
	}
}

func TestAppendValuesSlotFits(t *testing.T) {
	vs := []Value{Int(7), Str("slot")}
	slot := make([]byte, 0, SizeValues(vs))
	out, err := AppendValuesSlot(slot, vs)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &slot[0:1][0] {
		t.Fatal("slot append reallocated despite exact fit")
	}
	if !bytes.Equal(out, AppendValues(nil, vs)) {
		t.Fatal("slot encoding differs from plain encoding")
	}
}

func TestAppendValuesSlotFull(t *testing.T) {
	vs := []Value{Bytes(make([]byte, 100))}
	slot := make([]byte, 0, 50)
	out, err := AppendValuesSlot(slot, vs)
	if !errors.Is(err, ErrSlotFull) {
		t.Fatalf("got %v, want ErrSlotFull", err)
	}
	if len(out) != 0 {
		t.Fatal("failed slot append must not write")
	}
}

// appendCall builds one ring submission the way the world layer fills a
// slot: the flags byte, the record header, then the argument vector
// encoded in place behind it.
func appendCall(slot []byte, class, method string, hash int64, flags byte, args []Value) []byte {
	slot = AppendCallHeader(append(slot, flags), class, method, hash, SizeValues(args))
	return AppendValues(slot, args)
}

func TestCallSlotRoundTrip(t *testing.T) {
	args := []Value{Int(9), Str("arg"), Ref("app.Obj", -3)}
	argsLen := SizeValues(args)
	need := 1 + CallSize("app.Obj", "relay$get", -3, argsLen)
	slot := make([]byte, 0, need)
	buf := appendCall(slot, "app.Obj", "relay$get", -3, CallWantResult, args)
	if len(buf) != need {
		t.Fatalf("encoded %d bytes, CallSize says %d plus the flags byte", len(buf), need-1)
	}
	if &buf[0] != &slot[0:1][0] {
		t.Fatal("submission sized by CallSize reallocated out of its slot")
	}
	c, flags, err := DecodeSlot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if c.Class != "app.Obj" || c.Method != "relay$get" || c.Hash != -3 || flags != CallWantResult {
		t.Fatalf("decoded %s.%s#%d flags=%d", c.Class, c.Method, c.Hash, flags)
	}
	// The slot minus its flags byte is one record, decoded the same.
	rec, n, err := DecodeCall(buf[1:])
	if err != nil || n != need-1 || rec.Class != c.Class || rec.Method != c.Method || rec.Hash != c.Hash || !bytes.Equal(rec.Args, c.Args) {
		t.Fatalf("record decode: %+v, %d bytes, %v", rec, n, err)
	}
	got, err := UnmarshalList(c.Args)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(args) {
		t.Fatalf("decoded %d args, want %d", len(got), len(args))
	}
	for i := range args {
		if !got[i].Equal(args[i]) {
			t.Errorf("arg %d: %v != %v", i, got[i], args[i])
		}
	}
	// The decoded args view aliases the input buffer (zero-copy read).
	if len(c.Args) > 0 && &c.Args[0] != &buf[need-argsLen] {
		t.Fatal("DecodeSlot args do not alias the slot buffer")
	}
}

func TestDecodeCallCorrupt(t *testing.T) {
	good := appendCall(nil, "C", "m", 7, CallWantResult, []Value{Int(1)})
	for _, tc := range []struct {
		buf  []byte
		want error
	}{
		{nil, ErrTruncated},
		{good[:1], ErrTruncated},
		{good[:len(good)-1], ErrTruncated},                     // truncated args
		{append(append([]byte{}, good...), 0xFF), ErrTrailing}, // trailing byte
	} {
		if _, _, err := DecodeSlot(tc.buf); !errors.Is(err, tc.want) {
			t.Errorf("corrupt slot %v: err = %v, want %v", tc.buf, err, tc.want)
		}
	}
	if _, _, err := DecodeCall(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty record: err = %v, want ErrTruncated", err)
	}
}
