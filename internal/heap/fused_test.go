package heap

import (
	"bytes"
	"errors"
	"fmt"
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
	clk := cycles.New(simcfg.CPUHz, false)
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
	addr, err := h.Alloc(1, 65535, 8)
	if err != nil {
		t.Fatalf("Alloc with 65535 slots: %v", err)
	}
	if n, err := h.NumRefs(addr); err != nil || n != 65535 {
		t.Fatalf("NumRefs = %d, %v; want 65535", n, err)
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
// paging counters, collections — from the Alloc + WriteData sequence it
// stands for, including when the allocation collects and grows the heap
// and when the EPC is far smaller than the objects. Only the number of
// lines encrypted may differ, and only downwards.
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

		fa, err := fused.AllocData(int32(i+1), parts...)
		if err != nil {
			t.Fatalf("AllocData(%d): %v", size, err)
		}

		pa, err := plain.Alloc(int32(i+1), 0, len(head)+size)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", size, err)
		}
		off := 0
		for _, p := range parts {
			if err := plain.WriteData(pa, off, p); err != nil {
				t.Fatalf("WriteData(%d): %v", size, err)
			}
			off += len(p)
		}

		if fa != pa {
			t.Fatalf("size %d: fused object at %#x, unfused at %#x", size, fa, pa)
		}
		// The same reads on both sides: they are charged too.
		want := append(append([]byte(nil), head...), body...)
		for _, x := range []struct {
			name string
			h    epcHeap
		}{{"fused", fused}, {"unfused", plain}} {
			got := make([]byte, len(want))
			if err := x.h.ReadData(fa, 0, got); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("size %d: %s object holds the wrong bytes (%v)", size, x.name, err)
			}
			if cid, err := x.h.ClassID(fa); err != nil || cid != int32(i+1) {
				t.Fatalf("size %d: %s class id %d, %v", size, x.name, cid, err)
			}
			if n, err := x.h.DataBytes(fa); err != nil || n != len(want) {
				t.Fatalf("size %d: %s DataBytes = %d, %v", size, x.name, n, err)
			}
		}

		// Keep only the latest object alive, so the next allocation finds
		// garbage to collect.
		for _, x := range []struct {
			h  epcHeap
			hd *Handle
			a  Addr
		}{{fused, &fh, fa}, {plain, &ph, pa}} {
			if *x.hd != 0 {
				if err := x.h.Release(*x.hd); err != nil {
					t.Fatal(err)
				}
			}
			if *x.hd, err = x.h.NewHandle(x.a); err != nil {
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
	addr, err := h.AllocData(7, []byte("ab"), nil, []byte("cde"))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if err := h.ReadData(addr, 0, got); err != nil || string(got) != "abcde" {
		t.Fatalf("ReadData = %q, %v", got, err)
	}
	if n, _ := h.NumRefs(addr); n != 0 {
		t.Fatalf("NumRefs = %d", n)
	}
}

func TestAccessorsDoNotAllocate(t *testing.T) {
	h := newEPCHeap(t, Config{InitialSemi: 1 << 16, MaxSemi: 1 << 20}, 64)
	obj, err := h.Alloc(9, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	other, err := h.Alloc(9, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	word := make([]byte, 8)
	for name, fn := range map[string]func() error{
		"ClassID":   func() error { _, err := h.ClassID(obj); return err },
		"NumRefs":   func() error { _, err := h.NumRefs(obj); return err },
		"DataBytes": func() error { _, err := h.DataBytes(obj); return err },
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
		if _, err := h.ClassID(objs[i%len(objs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollect evacuates 64 live 4 KiB objects hanging off one root.
func BenchmarkCollect(b *testing.B) {
	h := newEPCHeap(b, Config{InitialSemi: 1 << 20, MaxSemi: 1 << 20}, simcfg.DefaultEPCBytes/simcfg.PageBytes)
	const live = 64
	root, err := h.Alloc(1, live, 0)
	if err != nil {
		b.Fatal(err)
	}
	rootHd, err := h.NewHandle(root)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < live; i++ {
		obj, err := h.AllocData(2, []byte(fmt.Sprintf("%08d", i)), make([]byte, 4096))
		if err != nil {
			b.Fatal(err)
		}
		root, _ = h.Deref(rootHd)
		if err := h.SetRef(root, i, obj); err != nil {
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
