package registry

import (
	"errors"
	"testing"

	"montsalvat/internal/heap"
)

func testHeap(t *testing.T) *heap.Heap {
	t.Helper()
	h, err := heap.NewPlain(heap.Config{InitialSemi: 1 << 16, MaxSemi: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// alloc allocates an object and takes its view.
func alloc(t *testing.T, h *heap.Heap, dataBytes int) heap.Obj {
	t.Helper()
	addr, err := h.Alloc(1, 0, dataBytes)
	if err != nil {
		t.Fatal(err)
	}
	o, err := h.View(addr)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func allocHandle(t *testing.T, h *heap.Heap) heap.Handle {
	t.Helper()
	hd, err := h.NewHandle(alloc(t, h, 16), 0)
	if err != nil {
		t.Fatal(err)
	}
	return hd
}

func TestExportResolveRelease(t *testing.T) {
	h := testHeap(t)
	r := New(h)
	hd := allocHandle(t, h)
	if err := r.Export(42, hd); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Resolve(42)
	if !ok || got != hd {
		t.Fatalf("Resolve = %v, %v", got, ok)
	}
	if r.Size() != 1 {
		t.Fatalf("Size = %d", r.Size())
	}
	removed, err := r.Release(42)
	if err != nil || !removed {
		t.Fatalf("Release = %v, %v", removed, err)
	}
	if _, ok := r.Resolve(42); ok {
		t.Fatal("resolved released hash")
	}
	if _, err := r.Release(42); !errors.Is(err, ErrUnknownHash) {
		t.Fatalf("double release: err = %v, want ErrUnknownHash", err)
	}
}

func TestRefCounting(t *testing.T) {
	h := testHeap(t)
	r := New(h)
	hd1 := allocHandle(t, h)
	if err := r.Export(7, hd1); err != nil {
		t.Fatal(err)
	}
	// Re-export: the duplicate handle is released, count rises to 2.
	hd2 := allocHandle(t, h)
	if err := r.Export(7, hd2); err != nil {
		t.Fatal(err)
	}
	if r.Size() != 1 {
		t.Fatalf("Size = %d, want 1", r.Size())
	}
	removed, err := r.Release(7)
	if err != nil || removed {
		t.Fatalf("first release: removed=%v err=%v, want kept", removed, err)
	}
	if _, ok := r.Resolve(7); !ok {
		t.Fatal("entry vanished while count > 0")
	}
	removed, err = r.Release(7)
	if err != nil || !removed {
		t.Fatalf("second release: removed=%v err=%v", removed, err)
	}
}

func TestReleaseFreesMirror(t *testing.T) {
	h := testHeap(t)
	r := New(h)
	addr := alloc(t, h, 16)
	hd, err := h.NewHandle(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := h.NewWeak(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Export(1, hd); err != nil {
		t.Fatal(err)
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, alive, _ := h.WeakGet(w); !alive {
		t.Fatal("registry did not keep mirror alive")
	}
	if _, err := r.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, alive, _ := h.WeakGet(w); alive {
		t.Fatal("mirror survived registry release")
	}
}

func TestHashes(t *testing.T) {
	h := testHeap(t)
	r := New(h)
	for _, hash := range []int64{30, 10, 20} {
		if err := r.Export(hash, allocHandle(t, h)); err != nil {
			t.Fatal(err)
		}
	}
	for _, hash := range []int64{10, 20, 30} {
		if _, ok := r.Resolve(hash); !ok {
			t.Fatalf("exported hash %d does not resolve", hash)
		}
	}
	if _, ok := r.Resolve(40); ok || r.Size() != 3 {
		t.Fatalf("Resolve(40) = %v, Size = %d; want false, 3", ok, r.Size())
	}
}

func TestWeakListSweep(t *testing.T) {
	h := testHeap(t)
	l := NewWeakList(h)

	// Proxy A stays referenced; proxy B becomes garbage.
	addrA := alloc(t, h, 8)
	hdA, _ := h.NewHandle(addrA, 0)
	wA, _ := h.NewWeak(addrA)
	l.Track(wA, 100)

	addrB := alloc(t, h, 8)
	wB, _ := h.NewWeak(addrB)
	l.Track(wB, 200)

	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	dead, err := l.SweepDead()
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) != 1 || dead[0] != 200 {
		t.Fatalf("dead = %v, want [200]", dead)
	}
	if l.Len() != 1 {
		t.Fatalf("Len after sweep = %d, want 1", l.Len())
	}
	// A second sweep finds nothing new.
	dead, err = l.SweepDead()
	if err != nil || len(dead) != 0 {
		t.Fatalf("second sweep = %v, %v", dead, err)
	}
	_ = hdA
}

func TestLiveHash(t *testing.T) {
	h := testHeap(t)
	l := NewWeakList(h)
	addr := alloc(t, h, 8)
	hd, _ := h.NewHandle(addr, 0)
	w, _ := h.NewWeak(addr)
	l.Track(w, 5)

	got, ok := l.LiveHash(5)
	if !ok || got != addr.Addr() {
		t.Fatalf("LiveHash = %v, %v", got, ok)
	}
	if _, ok := l.LiveHash(6); ok {
		t.Fatal("found unknown hash")
	}
	// After the proxy dies, LiveHash misses.
	if err := h.Release(hd); err != nil {
		t.Fatal(err)
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.LiveHash(5); ok {
		t.Fatal("LiveHash returned dead proxy")
	}
}

func TestSweepScalesToManyEntries(t *testing.T) {
	h := testHeap(t)
	l := NewWeakList(h)
	var handles []heap.Handle
	for i := 0; i < 500; i++ {
		addr := alloc(t, h, 8)
		w, err := h.NewWeak(addr)
		if err != nil {
			t.Fatal(err)
		}
		l.Track(w, int64(i))
		if i%2 == 0 {
			hd, err := h.NewHandle(addr, 0)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, hd)
		}
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	dead, err := l.SweepDead()
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) != 250 {
		t.Fatalf("dead = %d, want 250", len(dead))
	}
	if l.Len() != 250 {
		t.Fatalf("Len = %d, want 250", l.Len())
	}
	_ = handles
}
