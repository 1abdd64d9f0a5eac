package wire

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Size matches the encoder exactly for arbitrary values, so
// exact-size buffers never reallocate.
func TestQuickSizeMatchesAppend(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		return Size(v) == len(Marshal(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeExtremes(t *testing.T) {
	for _, v := range []Value{
		Int(math.MaxInt64), Int(math.MinInt64), Int(0), Int(-1),
		Ref("", math.MinInt64), Str(""), Bytes(nil), List(),
		Float(math.NaN()), Bool(true), Null(),
	} {
		if got, want := Size(v), len(Marshal(v)); got != want {
			t.Errorf("Size(%s) = %d, encoded length %d", v, got, want)
		}
	}
}

// AppendValues must produce the same bytes as encoding List(vs...), and
// SizeValues must predict the length exactly.
func TestAppendValuesMatchesList(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vs := make([]Value, r.Intn(6))
		for i := range vs {
			vs[i] = randomValue(r, 2)
		}
		direct := AppendValues(nil, vs)
		viaList := Append(nil, List(vs...))
		return string(direct) == string(viaList) && SizeValues(vs) == len(direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// appendFrame encodes a batch frame the way a flush does: the record
// count, then each record.
func appendFrame(dst []byte, calls []Call) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(calls)))
	for _, c := range calls {
		dst = append(AppendCallHeader(dst, c.Class, c.Method, c.Hash, len(c.Args)), c.Args...)
	}
	return dst
}

// readFrame collects every record of a frame.
func readFrame(buf []byte) ([]Call, error) {
	f, err := ReadFrame(buf)
	if err != nil {
		return nil, err
	}
	var calls []Call
	for c, ok := f.Next(); ok; c, ok = f.Next() {
		calls = append(calls, c)
	}
	return calls, nil
}

func TestFrameRoundTrip(t *testing.T) {
	calls := []Call{
		{Class: "Account", Method: "relay$set", Hash: -42, Args: MarshalList([]Value{Int(7)})},
		{Class: "", Method: "<release>", Hash: 1 << 40, Args: nil},
		{Class: "KV", Method: "relay$put", Hash: 0, Args: MarshalList([]Value{Str("k"), Bytes([]byte{1, 2, 3})})},
	}
	buf := appendFrame(nil, calls)
	got, err := readFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(calls) {
		t.Fatalf("decoded %d calls, want %d", len(got), len(calls))
	}
	for i, c := range calls {
		g := got[i]
		if g.Class != c.Class || g.Method != c.Method || g.Hash != c.Hash || string(g.Args) != string(c.Args) {
			t.Errorf("call %d: got %+v, want %+v", i, g, c)
		}
	}
	// The records' arguments are views of the frame, each capped at its
	// own end.
	last := got[len(got)-1]
	if &last.Args[0] != &buf[len(buf)-len(last.Args)] {
		t.Fatal("decoded args do not alias the frame buffer")
	}
	if first := got[0]; cap(first.Args) != len(first.Args) {
		t.Fatalf("args view has capacity %d past its %d bytes", cap(first.Args), len(first.Args))
	}
}

func TestFrameEmptyRoundTrip(t *testing.T) {
	got, err := readFrame(appendFrame(nil, nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty frame: %v, %d calls", err, len(got))
	}
}

func TestFrameErrors(t *testing.T) {
	calls := []Call{{Class: "Account", Method: "relay$set", Hash: 9, Args: []byte{1, 2}}}
	buf := appendFrame(nil, calls)
	for cut := 1; cut < len(buf); cut++ {
		if _, err := ReadFrame(buf[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncation at %d/%d bytes: err = %v, want ErrTruncated", cut, len(buf), err)
		}
	}
	if _, err := ReadFrame(append(buf, 0)); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing bytes: err = %v, want ErrTrailing", err)
	}
	if _, err := ReadFrame(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty input: err = %v, want ErrTruncated", err)
	}
}

// goldenFrame is one mixed batch frame: a relay call with arguments, a
// GC release (empty class, no argument bytes) and a call whose argument
// bytes are empty.
func goldenFrame() []byte {
	return appendFrame(nil, []Call{
		{Class: "Account", Method: "relay$updateBalance", Hash: -42, Args: MarshalList([]Value{Int(7), Str("x")})},
		{Class: "", Method: "<gc-release>", Hash: 1 << 40},
		{Class: "Bank", Method: "relay$tick", Hash: 3, Args: []byte{}},
	})
}

// TestFrameGolden pins the batch frame bytes: a uvarint call count
// followed by the call records, each length-prefixed class and method,
// a varint hash and length-prefixed argument bytes.
func TestFrameGolden(t *testing.T) {
	const want = "03074163636f756e741372656c61792475706461746542616c616e636553070702030e050178000c3c67632d72656c656173653e808080808040000442616e6b0a72656c6179247469636b0600"
	if got := hex.EncodeToString(goldenFrame()); got != want {
		t.Fatalf("frame bytes moved:\n got  %s\n want %s", got, want)
	}
}
