package heap

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// A released handle's slot is reused by the next NewHandle, under a new
// generation: the stale handle neither resolves nor releases the handle
// that now holds its slot.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	h := testHeap(t, smallCfg())
	a := mustAlloc(t, h, 1, 0, 8)
	b := mustAlloc(t, h, 2, 0, 8)
	stale, err := h.NewHandle(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Release(stale); err != nil {
		t.Fatal(err)
	}
	fresh, err := h.NewHandle(b, 0)
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
	if got, err := h.Deref(fresh); err != nil || got != b.Addr() {
		t.Fatalf("Deref(fresh) = %#x, %v; want %#x (the stale release must not drop it)", got, err, b.Addr())
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
	addr := mustAlloc(t, h, 1, 0, 8)
	var hds []Handle
	for i := 0; i < 5; i++ {
		hd, err := h.NewHandle(addr, 0)
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
	if _, err := h.NewHandle(addr, 0); err != nil {
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
	addr := mustAlloc(t, h, 1, 0, 8)
	r := rand.New(rand.NewSource(1))
	var live []Handle
	peak := 0
	for i := 0; i < 1_000_000; i++ {
		hd, err := h.NewHandle(addr, 0)
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

// Collection is a function of the operations alone, so two heaps fed the
// same operations — many roots, shared children, released handles whose
// slots are reused — hold byte-identical to-space after every collection.
func TestCollectIsDeterministic(t *testing.T) {
	build := func() *Heap {
		h := testHeap(t, Config{InitialSemi: 1 << 16, MaxSemi: 1 << 20})
		r := rand.New(rand.NewSource(7))
		var roots []Handle
		for i := 0; i < 200; i++ {
			addr := mustAlloc(t, h, int32(i), 2, 1+r.Intn(40))
			if err := h.WriteData(addr, 0, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			if len(roots) > 0 {
				child := deref(t, h, roots[r.Intn(len(roots))])
				if err := h.SetRef(addr, 0, child); err != nil {
					t.Fatal(err)
				}
			}
			hd, err := h.NewHandle(addr, 0)
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
	sa, sb := make([]byte, a.allocPtr), make([]byte, b.allocPtr)
	if err := a.from.Read(0, sa); err != nil {
		t.Fatal(err)
	}
	if err := b.from.Read(0, sb); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Handles < 2 {
		t.Fatal("fewer than two roots: nothing to order")
	}
	if !bytes.Equal(sa, sb) {
		t.Fatalf("to-space differs between two runs of the same operations (%d and %d bytes live)", len(sa), len(sb))
	}
}

// Roots evacuate in address order, each object once, so two heaps that
// make the same objects and graph and root the same set after each round
// hold byte-identical to-space after every collection, and charge the
// same ledger under a 3-page EPC, however their handles name the roots:
// one heap takes one handle per root in allocation order and releases
// in that order, the other takes them in reverse, two or three handles
// to every third root, and releases in reverse too, so its free list
// reissues other slots to other objects.
func TestCollectIgnoresHandleOrder(t *testing.T) {
	type step struct {
		dataBytes int
		child     int  // index into the roots of the round's start, or -1
		root      bool // the object stays rooted after the round
	}
	r := rand.New(rand.NewSource(11))
	var rounds [][]step
	for i := 0; i < 6; i++ {
		var round []step
		for j := 0; j < 60; j++ {
			round = append(round, step{dataBytes: 1 + r.Intn(300), child: r.Intn(40) - 1, root: r.Intn(2) == 0})
		}
		rounds = append(rounds, round)
	}
	// drops lists, per round, the indices of the roots of its start that
	// are unrooted at its end.
	drops := make([][]int, len(rounds))
	for i := range drops {
		for j := 0; j < 40; j++ {
			if r.Intn(4) == 0 {
				drops[i] = append(drops[i], j)
			}
		}
	}

	type heapRoots struct {
		epcHeap
		roots [][]Handle // the handles of each rooted object, oldest root first
	}
	run := func(h *heapRoots, reorder bool, i int) {
		var made []Obj
		var rooted []int
		for j, st := range rounds[i] {
			o := mustAlloc(t, h.Heap, int32(j+1), 1, st.dataBytes)
			if st.child >= 0 && st.child < len(h.roots) {
				if err := h.SetRef(o, 0, deref(t, h.Heap, h.roots[st.child][0])); err != nil {
					t.Fatal(err)
				}
			}
			made = append(made, o)
			if st.root {
				rooted = append(rooted, j)
			}
		}
		// Unroot the round's drops, then root its new objects.
		dropped := make(map[int]bool)
		var gone []Handle
		for _, j := range drops[i] {
			if j < len(h.roots) {
				dropped[j] = true
				gone = append(gone, h.roots[j]...)
			}
		}
		if reorder {
			slices.Reverse(gone)
		}
		for _, hd := range gone {
			if err := h.Release(hd); err != nil {
				t.Fatal(err)
			}
		}
		var kept [][]Handle
		for j, hds := range h.roots {
			if !dropped[j] {
				kept = append(kept, hds)
			}
		}
		fresh := make([][]Handle, len(rooted))
		for k := range rooted {
			if reorder {
				k = len(rooted) - 1 - k
			}
			n := 1
			if reorder && k%3 == 0 {
				n = 2 + k%2
			}
			for range n {
				hd, err := h.NewHandle(made[rooted[k]], 0)
				if err != nil {
					t.Fatal(err)
				}
				fresh[k] = append(fresh[k], hd)
			}
		}
		h.roots = append(kept, fresh...)
		if err := h.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{InitialSemi: 128 << 10, MaxSemi: 128 << 10}
	a := &heapRoots{epcHeap: newEPCHeap(t, cfg, 3)}
	b := &heapRoots{epcHeap: newEPCHeap(t, cfg, 3)}
	for i := range rounds {
		run(a, false, i)
		run(b, true, i)
		sa, sb := a.Stats(), b.Stats()
		if sb.Handles <= sa.Handles {
			t.Fatalf("round %d: %d and %d handles: the duplicates are missing", i, sa.Handles, sb.Handles)
		}
		sa.LastPause, sa.TotalPause, sa.Handles = 0, 0, 0
		sb.LastPause, sb.TotalPause, sb.Handles = 0, 0, 0
		if sa != sb {
			t.Fatalf("round %d: heap stats %+v and %+v", i, sa, sb)
		}
		if ca, cb := a.clk.Total(), b.clk.Total(); ca != cb {
			t.Fatalf("round %d: charged %d and %d cycles", i, ca, cb)
		}
		if pa, pb := a.res.Stats(), b.res.Stats(); pa != pb {
			t.Fatalf("round %d: paging %+v and %+v", i, pa, pb)
		}
		ta, tb := make([]byte, a.allocPtr), make([]byte, b.allocPtr)
		if err := a.from.Read(0, ta); err != nil {
			t.Fatal(err)
		}
		if err := b.from.Read(0, tb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ta, tb) {
			t.Fatalf("round %d: to-space differs (%d and %d bytes live)", i, len(ta), len(tb))
		}
	}
	if a.res.Stats().Evictions == 0 {
		t.Fatalf("the stream never evicted: %+v", a.res.Stats())
	}
}

// Identify answers a short handle only while its slot holds a handle the
// owner named with the same id: not once the handle is dropped, and not
// when the slot is reissued to another object under a generation whose
// low 16 bits read the same again. Retain adds an owner, so the handle
// takes one more Release to drop.
func TestIdentifyAndRetain(t *testing.T) {
	h := testHeap(t, smallCfg())
	a := mustAlloc(t, h, 1, 0, 8)
	b := mustAlloc(t, h, 2, 0, 8)
	short := func(hd Handle) uint64 { return uint64(hd) & (1<<48 - 1) }
	hd, err := h.NewHandle(a, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := h.Identify(short(hd), 7); !ok || got != hd {
		t.Fatalf("Identify(own handle) = %#x, %v; want %#x", uint64(got), ok, uint64(hd))
	}
	if _, ok := h.Identify(short(hd), 8); ok {
		t.Fatal("Identify answered for another id")
	}
	if err := h.Retain(hd); err != nil {
		t.Fatal(err)
	}
	if err := h.Release(hd); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Identify(short(hd), 7); !ok {
		t.Fatal("a retained handle dropped at its first release")
	}
	if err := h.Release(hd); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Identify(short(hd), 7); ok {
		t.Fatal("Identify answered for a dropped handle")
	}
	// Reissue the slot until its generation's low 16 bits wrap around to
	// the dropped handle's.
	var other Handle
	for {
		if other, err = h.NewHandle(b, 9); err != nil {
			t.Fatal(err)
		}
		if other.slot() != hd.slot() {
			t.Fatalf("slot %d not reused (got %d)", hd.slot(), other.slot())
		}
		if short(other) == short(hd) {
			break
		}
		if err := h.Release(other); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := h.Identify(short(hd), 7); ok {
		t.Fatal("Identify answered for a slot reissued to another object under a wrapped generation")
	}
	if got, ok := h.Identify(short(hd), 9); !ok || got != other {
		t.Fatalf("Identify(reissued handle) = %#x, %v; want %#x", uint64(got), ok, uint64(other))
	}
}
