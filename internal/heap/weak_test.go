package heap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"montsalvat/internal/epc"
)

// ErrBadWeak is returned by WeakGet for a weak reference the table does
// not hold: one never issued, or one whose slot a sweep freed.
var ErrBadWeak = errors.New("heap: unknown weak reference")

// WeakGet resolves a weak reference. ok is false once the referent has
// been collected ("null referent", §5.5).
func (h *Heap) WeakGet(w WeakRef) (Addr, bool, error) {
	if i := w.slot(); int(i) < len(h.weaks) {
		if s := &h.weaks[i]; s.gen == w.gen() && !slices.Contains(h.freeWeaks, i) {
			return s.addr, s.addr != 0, nil
		}
	}
	return 0, false, fmt.Errorf("%w: %#x", ErrBadWeak, uint64(w))
}

// A swept weak reference's slot is reused by the next NewWeak, under a
// new generation: the stale reference does not resolve to the one that
// now holds its slot.
func TestStaleWeakAfterSlotReuse(t *testing.T) {
	h := testHeap(t, smallCfg())
	a := mustAlloc(t, h, 1, 0, 8)
	stale, err := h.NewWeak(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	if dead := h.SweepWeaks(nil); !slices.Equal(dead, []int64{1}) {
		t.Fatalf("SweepWeaks = %v, want [1]", dead)
	}
	b := mustAlloc(t, h, 2, 0, 8)
	fresh, err := h.NewWeak(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.slot() != stale.slot() || fresh == stale {
		t.Fatalf("fresh weak %#x does not reuse the slot of %#x under a new generation", uint64(fresh), uint64(stale))
	}
	if _, _, err := h.WeakGet(stale); !errors.Is(err, ErrBadWeak) {
		t.Fatalf("WeakGet(stale) err = %v, want ErrBadWeak", err)
	}
	if got, ok, err := h.WeakGet(fresh); err != nil || !ok || got != b.Addr() {
		t.Fatalf("WeakGet(fresh) = %#x, %v, %v; want %#x", got, ok, err, b.Addr())
	}
	if _, ok := h.LiveWeak(1); ok {
		t.Fatal("LiveWeak finds the swept id")
	}
	if got := h.Stats().Weaks; got != 1 {
		t.Fatalf("Weaks = %d, want 1", got)
	}
	for _, forged := range []WeakRef{0, makeWeak(fresh.slot(), fresh.gen()+1), makeWeak(99, 1)} {
		if _, _, err := h.WeakGet(forged); !errors.Is(err, ErrBadWeak) {
			t.Errorf("WeakGet(%#x) err = %v, want ErrBadWeak", uint64(forged), err)
		}
	}
}

// LiveWeak finds a live referent by the id its owner gave it, and
// misses once the referent is collected. Of two referents registered
// under one id, it finds whichever is still live.
func TestLiveWeak(t *testing.T) {
	h := testHeap(t, smallCfg())
	a := mustAlloc(t, h, 1, 0, 8)
	ha, err := h.NewHandle(a, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewWeak(a, 5); err != nil {
		t.Fatal(err)
	}
	if got, ok := h.LiveWeak(5); !ok || got != a.Addr() {
		t.Fatalf("LiveWeak(5) = %#x, %v; want %#x", got, ok, a.Addr())
	}
	if _, ok := h.LiveWeak(6); ok {
		t.Fatal("LiveWeak found an unknown id")
	}

	// A second referent under id 5 dies; the first, older one is found.
	if _, err := h.NewWeak(mustAlloc(t, h, 1, 0, 8), 5); err != nil {
		t.Fatal(err)
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	want, _ := h.Deref(ha)
	if got, ok := h.LiveWeak(5); !ok || got != want {
		t.Fatalf("LiveWeak(5) after the newer referent died = %#x, %v; want %#x", got, ok, want)
	}
	if dead := h.SweepWeaks(nil); !slices.Equal(dead, []int64{5}) {
		t.Fatalf("SweepWeaks = %v, want [5]", dead)
	}
	if got, ok := h.LiveWeak(5); !ok || got != want {
		t.Fatalf("LiveWeak(5) after the sweep = %#x, %v; want %#x", got, ok, want)
	}

	// Once the last one dies, the id misses, before and after the sweep.
	if err := h.Release(ha); err != nil {
		t.Fatal(err)
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.LiveWeak(5); ok {
		t.Fatal("LiveWeak returned a dead referent")
	}
	if dead := h.SweepWeaks(nil); !slices.Equal(dead, []int64{5}) {
		t.Fatalf("SweepWeaks = %v, want [5]", dead)
	}
	if _, ok := h.LiveWeak(5); ok || len(h.weakIDs) != 0 {
		t.Fatalf("LiveWeak(5) = %v with %d ids left after the last sweep", ok, len(h.weakIDs))
	}
}

// SweepWeaks reports exactly the ids of dead referents: of a rooted
// and an unrooted referent, it takes the unrooted one's id, the count
// drops to one, and a second sweep finds nothing.
func TestSweepWeaks(t *testing.T) {
	h := testHeap(t, smallCfg())
	a := mustAlloc(t, h, 1, 0, 8)
	if _, err := h.NewHandle(a, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewWeak(a, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewWeak(mustAlloc(t, h, 1, 0, 8), 200); err != nil {
		t.Fatal(err)
	}
	if got := h.Stats().Weaks; got != 2 {
		t.Fatalf("Weaks = %d, want 2", got)
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	if dead := h.SweepWeaks(nil); !slices.Equal(dead, []int64{200}) {
		t.Fatalf("SweepWeaks = %v, want [200]", dead)
	}
	if got := h.Stats().Weaks; got != 1 {
		t.Fatalf("Weaks after the sweep = %d, want 1", got)
	}
	if _, ok := h.LiveWeak(100); !ok {
		t.Fatal("LiveWeak misses the rooted referent after the sweep")
	}
	if dead := h.SweepWeaks(nil); len(dead) != 0 {
		t.Fatalf("second sweep = %v, want none", dead)
	}
}

// SweepWeaks reports each cleared weak reference once, in from-space
// address order across the table, frees its slot and leaves the live
// ones registered; on 500 references half of which die, a sweep takes
// the 250 dead and a second finds nothing.
func TestSweepWeaksScalesToManyEntries(t *testing.T) {
	h := testHeap(t, Config{InitialSemi: 1 << 16, MaxSemi: 1 << 20})
	objs := make([]Obj, 500)
	for i := range objs {
		objs[i] = mustAlloc(t, h, 1, 0, 8)
		if i%2 == 0 {
			if _, err := h.NewHandle(objs[i], int64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Register them in reverse, so slot order is the reverse of
	// address order.
	for i := len(objs) - 1; i >= 0; i-- {
		if _, err := h.NewWeak(objs[i], int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Stats().Weaks; got != 500 {
		t.Fatalf("Weaks = %d, want 500", got)
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	if got := h.Stats().Weaks; got != 500 {
		t.Fatalf("Weaks after the collection = %d, want 500 until the sweep", got)
	}
	dead := h.SweepWeaks(nil)
	var want []int64
	for i := 1; i < len(objs); i += 2 {
		want = append(want, int64(i))
	}
	if !slices.Equal(dead, want) {
		t.Fatalf("SweepWeaks = %d ids %v..., want the 250 odd ids in address order", len(dead), dead[:min(len(dead), 4)])
	}
	if got := h.Stats().Weaks; got != 250 {
		t.Fatalf("Weaks after the sweep = %d, want 250", got)
	}
	for i := range objs {
		if _, ok := h.LiveWeak(int64(i)); ok != (i%2 == 0) {
			t.Fatalf("LiveWeak(%d) = %v after the sweep", i, ok)
		}
	}
	if dead := h.SweepWeaks(nil); len(dead) != 0 {
		t.Fatalf("second sweep = %v, want none", dead)
	}
}

// The collector fixes weak references up in address order, so under an
// EPC of a few pages — where the order of its header reads is the paging
// order — a collection with many weak references charges the same
// ledger every time, with slots that an earlier collection cleared and
// no sweep freed in the table.
func TestWeakFixupLedgerRepeats(t *testing.T) {
	type ledger struct {
		cycles int64
		paging epc.ResidencyStats
		heap   Stats
	}
	run := func() ledger {
		h := newEPCHeap(t, Config{InitialSemi: 64 << 10, MaxSemi: 1 << 20}, 3)
		// Ten garbage referents, cleared by the first collection and
		// left unswept: the second skips their slots.
		for i := 0; i < 10; i++ {
			if _, err := h.NewWeak(mustAlloc(t, h.Heap, 1, 0, 64), int64(1000+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Collect(); err != nil {
			t.Fatal(err)
		}
		const n = 96
		var weaks []WeakRef
		for i := 0; i < n; i++ {
			// ~26 KiB of objects: from-space spans more pages than the EPC.
			o := mustAlloc(t, h.Heap, int32(i+1), 0, 200+i)
			w, err := h.NewWeak(o, int64(i))
			if err != nil {
				t.Fatal(err)
			}
			weaks = append(weaks, w)
			if i%3 == 0 {
				if _, err := h.NewHandle(o, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := h.Collect(); err != nil {
			t.Fatal(err)
		}
		live := 0
		for i, w := range weaks {
			_, ok, err := h.WeakGet(w)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (i%3 == 0) {
				t.Fatalf("weak %d: live = %v after the collection", i, ok)
			}
			if ok {
				live++
			}
		}
		if live < 20 {
			t.Fatalf("only %d weak references survived", live)
		}
		if dead := h.SweepWeaks(nil); len(dead) != 10+n-live {
			t.Fatalf("swept %d, want %d", len(dead), 10+n-live)
		}
		s := h.Stats()
		s.LastPause, s.TotalPause = 0, 0
		return ledger{cycles: h.clk.Total(), paging: h.res.Stats(), heap: s}
	}
	first := run()
	if first.paging.Evictions == 0 {
		t.Fatalf("the stream never evicted: %+v", first.paging)
	}
	for i := 0; i < 4; i++ {
		if again := run(); again != first {
			t.Fatalf("run %d charged %+v, the first %+v", i+2, again, first)
		}
	}
}

// TestCollectIgnoresWeakOrder: three heaps allocate the same 96 objects
// on a 3-page EPC, root every third and weak-reference all of them, one
// in allocation order and two in shuffled orders. The collection that
// follows leaves the same to-space bytes and charges the same cycles,
// faults and evictions in all three, and a sweep reports the dead in
// the same order: weak fix-up follows the referents, not the slots.
func TestCollectIgnoresWeakOrder(t *testing.T) {
	type outcome struct {
		cycles int64
		paging epc.ResidencyStats
		space  []byte
		dead   []int64
	}
	run := func(order []int) outcome {
		h := newEPCHeap(t, Config{InitialSemi: 64 << 10, MaxSemi: 1 << 20}, 3)
		objs := make([]Obj, 96)
		for i := range objs {
			objs[i] = mustAlloc(t, h.Heap, int32(i+1), 0, 200+i)
			if i%3 == 0 {
				if _, err := h.NewHandle(objs[i], int64(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, i := range order {
			if _, err := h.NewWeak(objs[i], int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Collect(); err != nil {
			t.Fatal(err)
		}
		space := make([]byte, h.allocPtr)
		if err := h.from.Read(0, space); err != nil {
			t.Fatal(err)
		}
		return outcome{cycles: h.clk.Total(), paging: h.res.Stats(), space: space, dead: h.SweepWeaks(nil)}
	}
	inOrder := make([]int, 96)
	for i := range inOrder {
		inOrder[i] = i
	}
	first := run(inOrder)
	if first.paging.Evictions == 0 {
		t.Fatalf("the collection never evicted: %+v", first.paging)
	}
	if len(first.dead) != 64 {
		t.Fatalf("swept %d, want 64", len(first.dead))
	}
	for _, seed := range []int64{1, 2} {
		order := slices.Clone(inOrder)
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		got := run(order)
		if got.cycles != first.cycles || got.paging != first.paging {
			t.Errorf("shuffle %d: charged %d cycles, paging %+v; in order %d, %+v", seed, got.cycles, got.paging, first.cycles, first.paging)
		}
		if !bytes.Equal(got.space, first.space) {
			t.Errorf("shuffle %d: to-space differs", seed)
		}
		if !slices.Equal(got.dead, first.dead) {
			t.Errorf("shuffle %d: swept %v, in order %v", seed, got.dead, first.dead)
		}
	}
}
