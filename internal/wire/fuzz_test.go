package wire

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal hardens the boundary decoder: arbitrary bytes must never
// panic, and every successfully decoded value must re-encode to a buffer
// that decodes back to an equal value (canonical round trip). The decoder
// parses attacker-influenced data — an untrusted runtime can hand the
// enclave arbitrary argument buffers — so robustness here is part of the
// threat model (§4).
func FuzzUnmarshal(f *testing.F) {
	seeds := [][]byte{
		nil,
		{0},
		{255},
		Marshal(Null()),
		Marshal(Int(-12345)),
		Marshal(Str("hello")),
		Marshal(Bytes([]byte{1, 2, 3})),
		Marshal(List(Int(1), Str("x"), Ref("C", 9))),
		Marshal(Map(Pair{Key: "k", Val: Float(1.5)})),
		MarshalList([]Value{Int(1), List(Bool(true))}),
		{byte(KindList), 0xff, 0xff, 0xff, 0xff, 0x0f}, // huge count
		{byte(KindString), 0xff, 0xff, 0x7f},           // huge length
		// One-element lists nested past MaxDepth: before the decoder
		// bounded its recursion, 4 MiB of this overflowed the stack.
		bytes.Repeat([]byte{byte(KindList), 1}, 4*MaxDepth),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := Unmarshal(data)
		if err != nil {
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := Marshal(v)
		v2, _, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !v2.Equal(v) {
			t.Fatalf("canonical round trip: %v != %v", v2, v)
		}
	})
}
