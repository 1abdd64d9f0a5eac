package heap

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// A released handle's slot is reused by the next NewHandle, under a new
// generation: the stale handle neither resolves nor releases the handle
// that now holds its slot.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	h := testHeap(t, smallCfg())
	a, _ := h.Alloc(1, 0, 8)
	b, _ := h.Alloc(2, 0, 8)
	stale, err := h.NewHandle(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Release(stale); err != nil {
		t.Fatal(err)
	}
	fresh, err := h.NewHandle(b)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.slot() != stale.slot() || fresh == stale {
		t.Fatalf("fresh handle %#x does not reuse the slot of %#x under a new generation", uint64(fresh), uint64(stale))
	}
	if _, err := h.Deref(stale); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("Deref(stale) err = %v, want ErrBadHandle", err)
	}
	if err := h.Release(stale); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("Release(stale) err = %v, want ErrBadHandle", err)
	}
	if got, err := h.Deref(fresh); err != nil || got != b {
		t.Fatalf("Deref(fresh) = %#x, %v; want %#x (the stale release must not drop it)", got, err, b)
	}
	if err := h.Release(fresh); err != nil {
		t.Fatal(err)
	}
	if err := h.Release(fresh); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("double release: err = %v, want ErrBadHandle", err)
	}
	for _, forged := range []Handle{0, makeHandle(fresh.slot(), fresh.gen()+1), makeHandle(99, 1)} {
		if _, err := h.Deref(forged); !errors.Is(err, ErrBadHandle) {
			t.Errorf("Deref(%#x) err = %v, want ErrBadHandle", uint64(forged), err)
		}
	}
}

// Stats().Handles counts live handles, not slots.
func TestStatsCountLiveHandles(t *testing.T) {
	h := testHeap(t, smallCfg())
	addr, _ := h.Alloc(1, 0, 8)
	var hds []Handle
	for i := 0; i < 5; i++ {
		hd, err := h.NewHandle(addr)
		if err != nil {
			t.Fatal(err)
		}
		hds = append(hds, hd)
	}
	for _, hd := range hds[1:4] {
		if err := h.Release(hd); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Stats().Handles; got != 2 {
		t.Fatalf("Handles = %d after 5 issued and 3 released, want 2", got)
	}
	if _, err := h.NewHandle(addr); err != nil {
		t.Fatal(err)
	}
	if got, slots := h.Stats().Handles, len(h.handles); got != 3 || slots != 5 {
		t.Fatalf("Handles = %d over %d slots, want 3 over 5", got, slots)
	}
}

// A long run of NewHandle/Release pairs reuses slots: the table never
// grows past the peak number of live handles plus one.
func TestHandleSlotsAreReused(t *testing.T) {
	h := testHeap(t, smallCfg())
	addr, _ := h.Alloc(1, 0, 8)
	r := rand.New(rand.NewSource(1))
	var live []Handle
	peak := 0
	for i := 0; i < 1_000_000; i++ {
		hd, err := h.NewHandle(addr)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, hd)
		peak = max(peak, len(live))
		// Release one handle per new one once a random working set of up
		// to 32 is reached.
		if len(live) > r.Intn(32) {
			j := r.Intn(len(live))
			if err := h.Release(live[j]); err != nil {
				t.Fatal(err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if got := len(h.handles); got > peak+1 {
		t.Fatalf("handle table has %d slots after 10^6 pairs, peak live count %d", got, peak)
	}
	if got := h.Stats().Handles; got != len(live) {
		t.Fatalf("Handles = %d, want %d", got, len(live))
	}
}

// Roots are evacuated in slot order, so two heaps fed the same operations
// — many roots, shared children, released handles whose slots are reused —
// hold byte-identical to-space after every collection.
func TestCollectIsDeterministic(t *testing.T) {
	build := func() *Heap {
		h := testHeap(t, Config{InitialSemi: 1 << 16, MaxSemi: 1 << 20})
		r := rand.New(rand.NewSource(7))
		var roots []Handle
		for i := 0; i < 200; i++ {
			addr, err := h.Alloc(int32(i), 2, 1+r.Intn(40))
			if err != nil {
				t.Fatal(err)
			}
			if err := h.WriteData(addr, 0, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			if len(roots) > 0 {
				child, err := h.Deref(roots[r.Intn(len(roots))])
				if err != nil {
					t.Fatal(err)
				}
				if err := h.SetRef(addr, 0, child); err != nil {
					t.Fatal(err)
				}
			}
			hd, err := h.NewHandle(addr)
			if err != nil {
				t.Fatal(err)
			}
			roots = append(roots, hd)
			if r.Intn(3) == 0 {
				j := r.Intn(len(roots))
				if err := h.Release(roots[j]); err != nil {
					t.Fatal(err)
				}
				roots = append(roots[:j], roots[j+1:]...)
			}
			if i%50 == 49 {
				if err := h.Collect(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := h.Collect(); err != nil {
			t.Fatal(err)
		}
		return h
	}
	a, b := build(), build()
	sa, sb := a.from.(*PlainMemory).buf[:a.allocPtr], b.from.(*PlainMemory).buf[:b.allocPtr]
	if a.Stats().Handles < 2 {
		t.Fatal("fewer than two roots: nothing to order")
	}
	if !bytes.Equal(sa, sb) {
		t.Fatalf("to-space differs between two runs of the same operations (%d and %d bytes live)", len(sa), len(sb))
	}
}
