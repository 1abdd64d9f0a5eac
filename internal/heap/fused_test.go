package heap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"montsalvat/internal/cycles"
	"montsalvat/internal/epc"
	"montsalvat/internal/mee"
	"montsalvat/internal/simcfg"
)

// epcHeap is a heap over EPC memory with an EPC of epcPages pages.
type epcHeap struct {
	*Heap
	clk *cycles.Clock
	res *epc.Residency
	eng *mee.Engine
}

func newEPCHeap(tb testing.TB, cfg Config, epcPages int) epcHeap {
	tb.Helper()
	eng, err := mee.NewWithKey(bytes.Repeat([]byte{3}, 32))
	if err != nil {
		tb.Fatal(err)
	}
	clk := cycles.New(simcfg.CPUHz)
	res, err := epc.NewResidency(epcPages*simcfg.PageBytes, clk)
	if err != nil {
		tb.Fatal(err)
	}
	h, err := New(cfg, func(size int) (Backend, error) {
		return epc.New(size, res, eng, clk)
	})
	if err != nil {
		tb.Fatal(err)
	}
	return epcHeap{Heap: h, clk: clk, res: res, eng: eng}
}

func TestAllocRejectsMoreRefsThanHeaderHolds(t *testing.T) {
	h := testHeap(t, Config{InitialSemi: 1 << 20, MaxSemi: 4 << 20})
	if n := mustAlloc(t, h, 1, 65535, 8).NumRefs(); n != 65535 {
		t.Fatalf("NumRefs = %d; want 65535", n)
	}
	before := h.Stats()
	if _, err := h.Alloc(1, 65536, 8); !errors.Is(err, ErrTooManyRefs) {
		t.Fatalf("Alloc with 65536 slots: err = %v, want ErrTooManyRefs", err)
	}
	if after := h.Stats(); after.AllocatedBytes != before.AllocatedBytes || after.LiveBytes != before.LiveBytes {
		t.Fatalf("rejected allocation consumed heap: %+v -> %+v", before, after)
	}
}

// AllocData must be indistinguishable — object contents, cycle ledger,
// paging counters, collections — from the sequence it stands for: Alloc,
// one View of the new object, and one WriteData per part against that
// view. That holds when the allocation collects and grows the heap and
// when the EPC is far smaller than the objects. Only the number of lines
// encrypted may differ, and only downwards.
func TestAllocDataMatchesAllocThenWriteData(t *testing.T) {
	cfg := Config{InitialSemi: 64 << 10, MaxSemi: 4 << 20}
	fused := newEPCHeap(t, cfg, 3)
	plain := newEPCHeap(t, cfg, 3)

	head := []byte("identity")
	sizes := []int{0, 1, 40, 56, 64, 4000, 4096, 9000, 100 << 10, 5, 70 << 10}
	var fh, ph Handle
	for i, size := range sizes {
		body := bytes.Repeat([]byte{byte('a' + i)}, size)
		parts := [][]byte{head, body}
		if size == 0 {
			parts = parts[:1] // the modelled program skips an empty store
		}

		fo, err := fused.AllocData(int32(i+1), parts...)
		if err != nil {
			t.Fatalf("AllocData(%d): %v", size, err)
		}

		pa, err := plain.Alloc(int32(i+1), 0, len(head)+size)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", size, err)
		}
		po := mustView(t, plain.Heap, pa)
		off := 0
		for _, p := range parts {
			if err := plain.WriteData(po, off, p); err != nil {
				t.Fatalf("WriteData(%d): %v", size, err)
			}
			off += len(p)
		}

		if fo != po {
			t.Fatalf("size %d: fused view %+v, unfused %+v", size, fo, po)
		}
		// The same reads on both sides, against the views already taken:
		// they are charged too.
		want := append(append([]byte(nil), head...), body...)
		for _, x := range []struct {
			name string
			h    epcHeap
			o    Obj
		}{{"fused", fused, fo}, {"unfused", plain, po}} {
			got := make([]byte, len(want))
			if err := x.h.ReadData(x.o, 0, got); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("size %d: %s object holds the wrong bytes (%v)", size, x.name, err)
			}
			if cid := x.o.ClassID(); cid != int32(i+1) {
				t.Fatalf("size %d: %s class id %d", size, x.name, cid)
			}
			if n := x.o.DataBytes(); n != len(want) {
				t.Fatalf("size %d: %s DataBytes = %d", size, x.name, n)
			}
		}

		// Keep only the latest object alive, so the next allocation finds
		// garbage to collect.
		for _, x := range []struct {
			h  epcHeap
			hd *Handle
			o  Obj
		}{{fused, &fh, fo}, {plain, &ph, po}} {
			if *x.hd != 0 {
				if err := x.h.Release(*x.hd); err != nil {
					t.Fatal(err)
				}
			}
			if *x.hd, err = x.h.NewHandle(x.o, 0); err != nil {
				t.Fatal(err)
			}
		}

		if f, p := fused.clk.Total(), plain.clk.Total(); f != p {
			t.Fatalf("after size %d: fused charged %d cycles, unfused %d", size, f, p)
		}
		if f, p := fused.res.Stats(), plain.res.Stats(); f != p {
			t.Fatalf("after size %d: paging %+v fused, %+v unfused", size, f, p)
		}
		fs, ps := fused.Stats(), plain.Stats()
		fs.LastPause, fs.TotalPause, ps.LastPause, ps.TotalPause = 0, 0, 0, 0
		if fs != ps {
			t.Fatalf("after size %d: heap stats %+v fused, %+v unfused", size, fs, ps)
		}
	}
	if fused.Stats().Collections == 0 || fused.res.Stats().Evictions == 0 {
		t.Fatalf("the stream neither collected nor evicted: %+v %+v", fused.Stats(), fused.res.Stats())
	}
	f, p := fused.eng.Stats().LinesEncrypted, plain.eng.Stats().LinesEncrypted
	if f >= p {
		t.Fatalf("fused path encrypted %d lines, unfused %d: nothing saved", f, p)
	}
}

func TestAllocDataOnPlainHeap(t *testing.T) {
	h := testHeap(t, smallCfg())
	o, err := h.AllocData(7, []byte("ab"), nil, []byte("cde"))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if err := h.ReadData(o, 0, got); err != nil || string(got) != "abcde" {
		t.Fatalf("ReadData = %q, %v", got, err)
	}
	if n := o.NumRefs(); n != 0 {
		t.Fatalf("NumRefs = %d", n)
	}
	if o != mustView(t, h, o.Addr()) {
		t.Fatalf("AllocData view %+v differs from the header it wrote", o)
	}
}

func TestAccessorsDoNotAllocate(t *testing.T) {
	h := newEPCHeap(t, Config{InitialSemi: 1 << 16, MaxSemi: 1 << 20}, 64)
	obj := mustAlloc(t, h.Heap, 9, 2, 8)
	other := mustAlloc(t, h.Heap, 9, 0, 8)
	word := make([]byte, 8)
	for name, fn := range map[string]func() error{
		"View":      func() error { _, err := h.View(obj.Addr()); return err },
		"GetRef":    func() error { _, err := h.GetRef(obj, 1); return err },
		"SetRef":    func() error { return h.SetRef(obj, 1, other) },
		"ReadData":  func() error { return h.ReadData(obj, 0, word) },
		"WriteData": func() error { return h.WriteData(obj, 0, word) },
	} {
		if allocs := testing.AllocsPerRun(100, func() {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s allocates %.0f times per call", name, allocs)
		}
	}
}

func BenchmarkHeaderRead(b *testing.B) {
	h := newEPCHeap(b, Config{InitialSemi: 1 << 20, MaxSemi: 1 << 20}, simcfg.DefaultEPCBytes/simcfg.PageBytes)
	var objs [8]Addr
	for i := range objs {
		var err error
		if objs[i], err = h.Alloc(int32(i+1), 1, 9000); err != nil { // each on its own pages
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(headerBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.View(objs[i%len(objs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollect evacuates 64 live 4 KiB objects hanging off one root.
func BenchmarkCollect(b *testing.B) {
	h := newEPCHeap(b, Config{InitialSemi: 1 << 20, MaxSemi: 1 << 20}, simcfg.DefaultEPCBytes/simcfg.PageBytes)
	const live = 64
	rootHd, err := h.NewHandle(mustAlloc(b, h.Heap, 1, live, 0), 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < live; i++ {
		obj, err := h.AllocData(2, []byte(fmt.Sprintf("%08d", i)), make([]byte, 4096))
		if err != nil {
			b.Fatal(err)
		}
		if err := h.SetRef(deref(b, h.Heap, rootHd), i, obj); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(int64(h.Stats().LiveBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Collect(); err != nil {
			b.Fatal(err)
		}
	}
	if got := h.Stats().ObjectsCopied; got != uint64(b.N)*(live+1) {
		b.Fatalf("copied %d objects in %d collections", got, b.N)
	}
}

// BenchmarkCollectManyRoots evacuates 2,048 small objects, each its own
// root, whose handle slots are in shuffled order against their addresses
// (a frame that walked a 2,001-entry snapshot holds as many).
func BenchmarkCollectManyRoots(b *testing.B) {
	h := newEPCHeap(b, Config{InitialSemi: 1 << 20, MaxSemi: 1 << 20}, simcfg.DefaultEPCBytes/simcfg.PageBytes)
	const live = 2048
	objs := make([]Obj, live)
	for i := range objs {
		var err error
		if objs[i], err = h.AllocData(2, []byte(fmt.Sprintf("%08d", i)), make([]byte, 56)); err != nil {
			b.Fatal(err)
		}
	}
	for _, i := range rand.New(rand.NewSource(1)).Perm(live) {
		if _, err := h.NewHandle(objs[i], 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(int64(h.Stats().LiveBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Collect(); err != nil {
			b.Fatal(err)
		}
	}
	if got := h.Stats().ObjectsCopied; got != uint64(b.N)*live {
		b.Fatalf("copied %d objects in %d collections", got, b.N)
	}
}
