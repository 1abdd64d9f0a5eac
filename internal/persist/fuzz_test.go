package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzDecodeWALRecord hardens the record decoder the way
// wire.FuzzDecodeFrame hardens the frame decoder: record plaintext
// comes out of unseal, but defense in depth says arbitrary bytes must
// never panic or over-allocate, and a decoded record must survive a
// semantic round trip.
func FuzzDecodeWALRecord(f *testing.F) {
	seeds := [][]byte{
		nil,
		{0},
		{recordVersion},
		{recordVersion, byte(OpPut)},
		{recordVersion, byte(OpPut), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		appendWALRecord(nil, Record{LSN: 1, Op: OpPut, State: "kv", Key: "k", Value: []byte("v")}),
		appendWALRecord(nil, Record{LSN: 1 << 40, Op: OpDelete, State: "kv", Key: "gone"}),
		appendWALRecord(nil, Record{LSN: 7, Op: OpPut, State: "", Key: "", Value: bytes.Repeat([]byte{0xaa}, 300)}),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeWALRecord(data)
		if err != nil {
			return
		}
		// Varint encodings are not unique, so the invariant is semantic:
		// re-encoding decodes to the same record, and the re-encoded form
		// is a fixed point.
		re := appendWALRecord(nil, rec)
		rec2, err := DecodeWALRecord(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if rec2.LSN != rec.LSN || rec2.Op != rec.Op || rec2.State != rec.State ||
			rec2.Key != rec.Key || !bytes.Equal(rec2.Value, rec.Value) {
			t.Fatalf("round trip: %+v != %+v", rec2, rec)
		}
		if re2 := appendWALRecord(nil, rec2); !bytes.Equal(re2, re) {
			t.Fatalf("re-encode not stable: %x != %x", re2, re)
		}
	})
}

// TestDecodeWALRecordCorruptInputs pins the error behaviour on named
// malformed shapes.
func TestDecodeWALRecordCorruptInputs(t *testing.T) {
	valid := appendWALRecord(nil, Record{LSN: 3, Op: OpPut, State: "kv", Key: "k", Value: []byte("v")})
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"version only", []byte{recordVersion}},
		{"wrong version", append([]byte{9}, valid[1:]...)},
		{"zero op", []byte{recordVersion, 0, 1}},
		{"unterminated lsn varint", []byte{recordVersion, byte(OpPut), 0x80, 0x80}},
		{"state length overruns", []byte{recordVersion, byte(OpPut), 1, 0x20, 'k'}},
		{"huge key length", append([]byte{recordVersion, byte(OpPut), 1, 0}, 0xff, 0xff, 0xff, 0xff, 0x0f)},
		{"missing value", valid[:len(valid)-2]},
		{"trailing bytes", append(append([]byte{}, valid...), 0xAA)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeWALRecord(tc.buf); err == nil {
				t.Fatalf("corrupt record %x accepted", tc.buf)
			}
		})
	}
}

// TestWALBatchRoundTrip pins the batch codec.
func TestWALBatchRoundTrip(t *testing.T) {
	recs := []Record{
		{LSN: 7, Op: OpPut, State: "kv", Key: "a", Value: []byte("1")},
		{LSN: 8, Op: OpDelete, State: "kv", Key: "b"},
		{LSN: 9, Op: OpPut, State: "paldb", Key: "", Value: bytes.Repeat([]byte{0xcc}, 300)},
	}
	got, err := DecodeWALBatch(EncodeWALBatch(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].LSN != recs[i].LSN || got[i].Op != recs[i].Op || got[i].State != recs[i].State ||
			got[i].Key != recs[i].Key || !bytes.Equal(got[i].Value, recs[i].Value) {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}

	corrupt := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"single-record version", appendWALRecord(nil, recs[0])},
		{"zero count", []byte{batchRecordVersion, 0}},
		{"huge count", []byte{batchRecordVersion, 0xff, 0xff, 0xff, 0x7f}},
		{"truncated member", EncodeWALBatch(recs)[:10]},
		{"trailing bytes", append(EncodeWALBatch(recs), 0xAA)},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeWALBatch(tc.buf); err == nil {
				t.Fatalf("corrupt batch %x accepted", tc.buf)
			}
		})
	}
}

// FuzzDecodeWALBatch hardens the frame-payload decoder like
// FuzzDecodeWALRecord hardens the per-member one: arbitrary bytes must never panic or
// over-allocate, and a decoded batch must survive a semantic round trip.
func FuzzDecodeWALBatch(f *testing.F) {
	seeds := [][]byte{
		nil,
		{batchRecordVersion},
		{batchRecordVersion, 1},
		EncodeWALBatch([]Record{{LSN: 1, Op: OpPut, State: "kv", Key: "k", Value: []byte("v")}}),
		EncodeWALBatch([]Record{
			{LSN: 5, Op: OpPut, State: "kv", Key: "a", Value: []byte("1")},
			{LSN: 6, Op: OpDelete, State: "kv", Key: "a"},
		}),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeWALBatch(data)
		if err != nil {
			return
		}
		re := EncodeWALBatch(recs)
		recs2, err := DecodeWALBatch(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("round trip count: %d != %d", len(recs2), len(recs))
		}
		for i := range recs {
			if recs2[i].LSN != recs[i].LSN || recs2[i].Op != recs[i].Op ||
				recs2[i].State != recs[i].State || recs2[i].Key != recs[i].Key ||
				!bytes.Equal(recs2[i].Value, recs[i].Value) {
				t.Fatalf("round trip record %d: %+v != %+v", i, recs2[i], recs[i])
			}
		}
	})
}

// segLog builds a small live log over an env and returns the pieces a
// corruption test needs: the manager (still open for in-package
// crafting helpers) and the segment carrying replayable records.
func segLog(t *testing.T) (*env, *Manager, *MapState, map[string]string) {
	t.Helper()
	e := newEnv(t)
	kv := NewMapState("kv")
	m := e.open(Options{Dir: "p/"}, kv)
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, kvp := range [][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}} {
		kv.Put(kvp[0], []byte(kvp[1]))
		mustAppend(t, m, "kv", kvp[0], kvp[1])
		want[kvp[0]] = kvp[1]
	}
	return e, m, kv, want
}

func recoverFresh(t *testing.T, e *env) (*MapState, Report, error) {
	t.Helper()
	kv := NewMapState("kv")
	m := e.open(Options{Dir: "p/"}, kv)
	rep, err := m.Recover()
	return kv, rep, err
}

// TestCorruptSegmentTable covers the named damage classes of the
// segment reader: host-side truncation, bit flips, and stale/replayed
// blobs each land on their own typed error (or, for a torn tail, on
// clean prefix recovery).
func TestCorruptSegmentTable(t *testing.T) {
	t.Run("truncated final record recovers prefix", func(t *testing.T) {
		e, m, _, want := segLog(t)
		name := m.segmentName(m.curSeq)
		size, err := e.fs.Size(name)
		if err != nil {
			t.Fatal(err)
		}
		// Chop into the last record's sealed body: a torn append.
		buf, err := e.fs.ReadAt(name, 0, int(size))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.fs.Remove(name); err != nil {
			t.Fatal(err)
		}
		if err := e.fs.WriteAt(name, 0, buf[:size-7]); err != nil {
			t.Fatal(err)
		}
		kv2, rep, err := recoverFresh(t, e)
		if err != nil {
			t.Fatalf("torn tail recovery: %v", err)
		}
		if !rep.TornTail {
			t.Fatal("torn tail not reported")
		}
		delete(want, "c") // the torn record is the discarded suffix
		assertKV(t, kv2, want)
	})

	t.Run("flipped auth tag", func(t *testing.T) {
		e, m, _, _ := segLog(t)
		name := m.segmentName(m.curSeq)
		size, err := e.fs.Size(name)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one byte inside the final record's sealed body (the tag
		// trails the ciphertext): present but unopenable.
		if err := e.fs.WriteAt(name, size-2, []byte{0xff}); err != nil {
			t.Fatal(err)
		}
		_, _, err = recoverFresh(t, e)
		if !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("flipped tag: %v, want ErrCorruptRecord", err)
		}
	})

	t.Run("stale counter epoch", func(t *testing.T) {
		e, m, _, _ := segLog(t)
		// Craft a validly-sealed segment stamped with an old epoch but
		// carrying an LSN past the live watermark — a stale fork's tail
		// spliced into the current lineage.
		staleSeq := m.curSeq + 1
		if err := m.openSegment(staleSeq, m.epoch-1, m.nextLSN); err != nil {
			t.Fatal(err)
		}
		if err := m.appendFrame([]Record{{LSN: m.nextLSN, Op: OpPut, State: "kv", Key: "evil", Value: []byte("x")}}); err != nil {
			t.Fatal(err)
		}
		_, _, err := recoverFresh(t, e)
		if !errors.Is(err, ErrStaleCounter) {
			t.Fatalf("stale epoch: %v, want ErrStaleCounter", err)
		}
	})

	t.Run("duplicate LSN", func(t *testing.T) {
		e, m, _, _ := segLog(t)
		// Re-append the last record's LSN: framing-level duplicate.
		dup := m.nextLSN - 1
		if err := m.appendFrame([]Record{{LSN: dup, Op: OpPut, State: "kv", Key: "dup", Value: []byte("x")}}); err != nil {
			t.Fatal(err)
		}
		_, _, err := recoverFresh(t, e)
		if !errors.Is(err, ErrDuplicateLSN) {
			t.Fatalf("duplicate LSN: %v, want ErrDuplicateLSN", err)
		}
	})

	t.Run("LSN gap", func(t *testing.T) {
		e, m, _, _ := segLog(t)
		if err := m.appendFrame([]Record{{LSN: m.nextLSN + 5, Op: OpPut, State: "kv", Key: "skip", Value: []byte("x")}}); err != nil {
			t.Fatal(err)
		}
		_, _, err := recoverFresh(t, e)
		if !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("LSN gap: %v, want ErrCorruptSegment", err)
		}
	})

	t.Run("bare record payload", func(t *testing.T) {
		e, m, _, _ := segLog(t)
		// A validly sealed frame whose payload is one bare record rather
		// than a batch: replay accepts exactly one frame format.
		rec := Record{LSN: m.nextLSN, Op: OpPut, State: "kv", Key: "bare", Value: []byte("x")}
		sealed, err := m.seal(appendWALRecord(nil, rec), recordAAD(m.curSeq, rec.LSN))
		if err != nil {
			t.Fatal(err)
		}
		frame := binary.BigEndian.AppendUint32(nil, uint32(8+len(sealed)))
		frame = append(appendU64(frame, rec.LSN), sealed...)
		if _, err := e.fs.Append(m.segmentName(m.curSeq), frame); err != nil {
			t.Fatal(err)
		}
		_, _, err = recoverFresh(t, e)
		if !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("bare record payload: %v, want ErrCorruptRecord", err)
		}
	})

	t.Run("truncated non-final segment", func(t *testing.T) {
		e, m, _, _ := segLog(t)
		name := m.segmentName(m.curSeq)
		size, err := e.fs.Size(name)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := e.fs.ReadAt(name, 0, int(size))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.fs.Remove(name); err != nil {
			t.Fatal(err)
		}
		if err := e.fs.WriteAt(name, 0, buf[:size-7]); err != nil {
			t.Fatal(err)
		}
		// A later (empty) segment exists, so the damage is mid-log, not
		// a torn tail.
		if err := m.openSegment(m.curSeq+1, m.epoch, m.nextLSN); err != nil {
			t.Fatal(err)
		}
		_, _, err = recoverFresh(t, e)
		if !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("mid-log truncation: %v, want ErrCorruptSegment", err)
		}
	})

	t.Run("bad magic", func(t *testing.T) {
		e, m, _, _ := segLog(t)
		if err := e.fs.WriteAt(m.segmentName(m.curSeq), 0, []byte("XXXXXXXX")); err != nil {
			t.Fatal(err)
		}
		_, _, err := recoverFresh(t, e)
		if !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("bad magic: %v, want ErrCorruptSegment", err)
		}
	})

	t.Run("segment renamed into another slot", func(t *testing.T) {
		e, m, _, _ := segLog(t)
		// Copy the live segment under the next sequence number: the
		// header AAD binds the original seq, so the copy fails closed.
		name := m.segmentName(m.curSeq)
		size, err := e.fs.Size(name)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := e.fs.ReadAt(name, 0, int(size))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.fs.WriteAt(m.segmentName(m.curSeq+1), 0, buf); err != nil {
			t.Fatal(err)
		}
		_, _, err = recoverFresh(t, e)
		if !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("renamed segment: %v, want ErrCorruptSegment", err)
		}
	})
}

// TestCheckpointDecodeGuards exercises the checkpoint payload decoder's
// bound checks directly (the sealed path already rejects tampering, so
// these guard against in-enclave encoding bugs).
func TestCheckpointDecodeGuards(t *testing.T) {
	valid := encodeCheckpoint(checkpoint{
		stamp:     4,
		watermark: 9,
		states:    map[string][]byte{"kv": {1, 2, 3}},
	})
	if c, err := decodeCheckpoint(valid); err != nil || c.stamp != 4 || c.watermark != 9 {
		t.Fatalf("round trip: %+v, %v", c, err)
	}
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"bad version", append([]byte{9}, valid[1:]...)},
		{"truncated counts", valid[:10]},
		{"trailing bytes", append(append([]byte{}, valid...), 1)},
		{"state payload overruns", valid[:len(valid)-1]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeCheckpoint(tc.buf); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
			}
		})
	}
	// Length prefixes are bounded before allocation.
	huge := []byte{ckpVersion}
	huge = appendU64(huge, 1)
	huge = appendU64(huge, 1)
	huge = binary.AppendUvarint(huge, 1)     // one state
	huge = binary.AppendUvarint(huge, 1<<40) // absurd name length
	if _, err := decodeCheckpoint(huge); err == nil {
		t.Fatal("absurd state-name length accepted")
	}
	hugeCount := binary.AppendUvarint(huge[:17:17], 1<<40)
	if _, err := decodeCheckpoint(hugeCount); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("absurd state count: %v, want ErrCorruptCheckpoint", err)
	}
}

// FuzzDecodeSegHeader hardens the segment-header decoder: arbitrary
// bytes must fail with the typed error, and whatever decodes must
// re-encode to exactly the input (the layout is fixed-width).
func FuzzDecodeSegHeader(f *testing.F) {
	valid := encodeSegHeader(segHeader{seq: 3, epoch: 7, baseLSN: 42})
	for _, s := range [][]byte{nil, {segVersion}, valid, valid[:len(valid)-1], append([]byte{9}, valid[1:]...), append(append([]byte{}, valid...), 0)} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeSegHeader(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if re := encodeSegHeader(h); !bytes.Equal(re, data) {
			t.Fatalf("round trip: %x != %x", re, data)
		}
	})
}

// FuzzDecodeCheckpoint hardens the checkpoint payload decoder: arbitrary
// bytes must never panic or over-allocate, failures carry the typed
// error, and a decoded checkpoint survives a semantic round trip.
func FuzzDecodeCheckpoint(f *testing.F) {
	valid := encodeCheckpoint(checkpoint{stamp: 4, watermark: 9, states: map[string][]byte{"kv": {1, 2, 3}, "paldb": nil}})
	hugeCount := binary.AppendUvarint(appendU64(appendU64([]byte{ckpVersion}, 1), 1), 1<<40)
	hugeName := binary.AppendUvarint(binary.AppendUvarint(hugeCount[:17:17], 1), 1<<40)
	for _, s := range [][]byte{nil, {ckpVersion}, valid, valid[:10], valid[:len(valid)-1], append(append([]byte{}, valid...), 1), hugeCount, hugeName} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		c2, err := decodeCheckpoint(encodeCheckpoint(c))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if c2.stamp != c.stamp || c2.watermark != c.watermark || len(c2.states) != len(c.states) {
			t.Fatalf("round trip: %+v != %+v", c2, c)
		}
		for name, snap := range c.states {
			if got, ok := c2.states[name]; !ok || !bytes.Equal(got, snap) {
				t.Fatalf("round trip state %q: %x != %x", name, got, snap)
			}
		}
	})
}
