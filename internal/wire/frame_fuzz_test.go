package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzDecodeFrame hardens the batched-transition frame reader the way
// FuzzUnmarshal hardens the value decoder — frames cross the enclave
// boundary, so no input may panic or over-allocate — and checks it
// against the ring slot decoder: a frame and a slot carry the same call
// record through the same decoder, so every record the frame yields must
// decode identically as a slot, behind a flags byte. A rejected frame
// must fail with a typed error and yield no records.
func FuzzDecodeFrame(f *testing.F) {
	seeds := [][]byte{
		nil,
		{0},
		{1},
		{0xff, 0xff, 0xff, 0xff, 0x0f}, // huge call count, no payload
		appendFrame(nil, nil),
		appendFrame(nil, []Call{{Class: "Account", Method: "relay$set", Hash: -1, Args: MarshalList([]Value{Int(7)})}}),
		appendFrame(nil, []Call{
			{Class: "KV", Method: "relay$put", Hash: 1 << 40, Args: MarshalList([]Value{Str("k"), Bytes([]byte{1, 2})})},
			{Class: "", Method: "<gc-release>", Hash: 0, Args: nil},
		}),
		goldenFrame(),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(data)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrTrailing) {
				t.Fatalf("untyped frame error: %v", err)
			}
			if _, ok := fr.Next(); ok {
				t.Fatal("a rejected frame yielded a record")
			}
			return
		}
		// Walk the records' raw bytes alongside the iterator.
		count, off := binary.Uvarint(data)
		for i := uint64(0); i < count; i++ {
			c, ok := fr.Next()
			if !ok {
				t.Fatalf("frame ended after %d of %d records", i, count)
			}
			_, n, err := DecodeCall(data[off:])
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			for _, flags := range []byte{0, CallWantResult} {
				slot := append([]byte{flags}, data[off:off+n]...)
				s, sflags, err := DecodeSlot(slot)
				if err != nil {
					t.Fatalf("record %d as a slot: %v", i, err)
				}
				if sflags != flags || s.Class != c.Class || s.Method != c.Method || s.Hash != c.Hash || !bytes.Equal(s.Args, c.Args) {
					t.Fatalf("record %d: frame %+v, slot %+v (flags %d)", i, c, s, sflags)
				}
			}
			off += n
		}
		if _, ok := fr.Next(); ok || off != len(data) {
			t.Fatalf("frame yields past its %d records (%d of %d bytes read)", count, off, len(data))
		}
	})
}

// TestFrameCorruptInputs pins down the error behaviour of the frame
// decoder on specific malformed shapes — the named cousins of the random
// truncation loop in TestFrameErrors.
func TestFrameCorruptInputs(t *testing.T) {
	valid := appendFrame(nil, []Call{
		{Class: "Account", Method: "relay$set", Hash: 9, Args: MarshalList([]Value{Int(1)})},
	})
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"count without calls", []byte{3}},
		{"huge count no payload", []byte{0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"unterminated count varint", []byte{0x80, 0x80, 0x80}},
		{"class length overruns", []byte{1, 0x20, 'A'}},
		{"huge class length", append([]byte{1}, 0xff, 0xff, 0xff, 0xff, 0x0f)},
		{"missing method", []byte{1, 1, 'C'}},
		{"missing hash", []byte{1, 1, 'C', 1, 'm'}},
		{"missing args", []byte{1, 1, 'C', 1, 'm', 0x02}},
		{"args length overruns", []byte{1, 1, 'C', 1, 'm', 0x02, 0x7f, 0x01}},
		{"trailing bytes", append(append([]byte{}, valid...), 0xAA)},
		{"second call truncated", bytes.Replace(valid, []byte{1}, []byte{2}, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadFrame(tc.buf); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrTrailing) {
				t.Fatalf("corrupt frame %x: err = %v, want a typed error", tc.buf, err)
			}
		})
	}
}

// TestFrameCountClamp checks the allocation clamp: a frame announcing an
// absurd call count must fail on the missing payload without first
// allocating storage for the announced count.
func TestFrameCountClamp(t *testing.T) {
	// Announces 2^32 calls with a 1-byte payload. The count is checked
	// against the bytes left before any record is walked.
	buf := []byte{0x80, 0x80, 0x80, 0x80, 0x10, 0x00}
	if _, err := ReadFrame(buf); !errors.Is(err, ErrTruncated) {
		t.Fatalf("frame with 2^32 announced calls: err = %v, want ErrTruncated", err)
	}
}
