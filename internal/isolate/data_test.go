package isolate

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"montsalvat/internal/cycles"
	"montsalvat/internal/epc"
	"montsalvat/internal/heap"
	"montsalvat/internal/mee"
	"montsalvat/internal/simcfg"
)

// A List's backing array doubles; past 32,768 elements the doubled array
// no longer fits the heap's 16-bit slot count. The add must fail with the
// heap's typed error and leave the list as it was.
func TestListAddSurfacesTooManyRefs(t *testing.T) {
	h, err := heap.NewPlain(heap.Config{InitialSemi: 4 << 20, MaxSemi: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var hash int64
	iso, err := New(h, func() int64 { hash++; return hash })
	if err != nil {
		t.Fatal(err)
	}
	list, err := iso.NewList()
	if err != nil {
		t.Fatal(err)
	}
	elem, err := iso.NewString("e")
	if err != nil {
		t.Fatal(err)
	}
	const full = 32768
	for i := 0; i < full; i++ {
		if err := iso.ListAdd(list, elem); err != nil {
			t.Fatalf("ListAdd %d: %v", i, err)
		}
	}
	err = iso.ListAdd(list, elem)
	if !errors.Is(err, heap.ErrTooManyRefs) {
		t.Fatalf("ListAdd past %d elements: err = %v, want heap.ErrTooManyRefs", full, err)
	}
	if n, err := iso.ListSize(list); err != nil || n != full {
		t.Fatalf("ListSize after the refused add = %d, %v; want %d", n, err, full)
	}
	last, _, _, err := iso.ListGet(list, full-1)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := iso.StrValue(last); err != nil || s != "e" {
		t.Fatalf("last element = %q, %v", s, err)
	}
}

func epcIsolate(tb testing.TB) (*Isolate, *mee.Engine) {
	tb.Helper()
	eng, err := mee.New()
	if err != nil {
		tb.Fatal(err)
	}
	clk := cycles.New(simcfg.CPUHz)
	res, err := epc.NewResidency(simcfg.DefaultEPCBytes, clk)
	if err != nil {
		tb.Fatal(err)
	}
	h, err := heap.New(heap.Config{InitialSemi: 1 << 20, MaxSemi: 1 << 20}, func(size int) (heap.Backend, error) {
		return epc.New(size, res, eng, clk)
	})
	if err != nil {
		tb.Fatal(err)
	}
	var hash int64
	iso, err := New(h, func() int64 { hash++; return hash })
	if err != nil {
		tb.Fatal(err)
	}
	return iso, eng
}

// A data object is stored in one pass: every line of a fresh String is
// encrypted once, and it reads back whole, hash included.
func TestNewStringEncryptsEachLineOnce(t *testing.T) {
	iso, eng := epcIsolate(t)
	before := eng.Stats().LinesEncrypted
	payload := strings.Repeat("montsalvat!", 400) // 4,400 B
	hd, err := iso.NewString(payload)
	if err != nil {
		t.Fatal(err)
	}
	const objBytes = 16 + 8 + 4400 // header, hash, payload
	if got, max := eng.Stats().LinesEncrypted-before, uint64(objBytes/mee.LineBytes+2); got > max {
		t.Fatalf("NewString of %d B encrypted %d lines, want at most %d", len(payload), got, max)
	}
	if s, err := iso.StrValue(hd); err != nil || s != payload {
		t.Fatalf("StrValue returned %d bytes, %v", len(s), err)
	}
	if hash, err := iso.HashOf(hd); err != nil || hash != 1 {
		t.Fatalf("HashOf = %d, %v; want 1", hash, err)
	}
	empty, err := iso.NewBytes(nil)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := iso.BytesValue(empty); err != nil || len(b) != 0 {
		t.Fatalf("empty Bytes = %v, %v", b, err)
	}
	if hash, err := iso.HashOf(empty); err != nil || hash != 2 {
		t.Fatalf("HashOf(empty) = %d, %v; want 2", hash, err)
	}
}

func BenchmarkNewString4K(b *testing.B) {
	iso, _ := epcIsolate(b)
	payload := string(bytes.Repeat([]byte{'v'}, 4096))
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hd, err := iso.NewString(payload)
		if err != nil {
			b.Fatal(err)
		}
		if err := iso.Release(hd); err != nil {
			b.Fatal(err)
		}
	}
}
