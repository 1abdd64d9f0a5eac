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
	if _, err := h.NewWeak(addr, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Export(1, hd); err != nil {
		t.Fatal(err)
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, alive := h.LiveWeak(1); !alive {
		t.Fatal("registry did not keep mirror alive")
	}
	if _, err := r.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, alive := h.LiveWeak(1); alive {
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
