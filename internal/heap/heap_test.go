package heap

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"montsalvat/internal/cycles"
	"montsalvat/internal/epc"
	"montsalvat/internal/mee"
)

func testHeap(t *testing.T, cfg Config) *Heap {
	t.Helper()
	h, err := NewPlain(cfg)
	if err != nil {
		t.Fatalf("NewPlain: %v", err)
	}
	return h
}

func smallCfg() Config {
	return Config{InitialSemi: 4096, MaxSemi: 1 << 20}
}

// mustView takes the view of the object at addr.
func mustView(tb testing.TB, h *Heap, addr Addr) Obj {
	tb.Helper()
	o, err := h.View(addr)
	if err != nil {
		tb.Fatalf("View(%#x): %v", uint64(addr), err)
	}
	return o
}

// mustAlloc allocates an object and takes its view.
func mustAlloc(tb testing.TB, h *Heap, classID int32, nRefs, dataBytes int) Obj {
	tb.Helper()
	addr, err := h.Alloc(classID, nRefs, dataBytes)
	if err != nil {
		tb.Fatalf("Alloc: %v", err)
	}
	return mustView(tb, h, addr)
}

// deref takes the view of the object behind a handle.
func deref(tb testing.TB, h *Heap, hd Handle) Obj {
	tb.Helper()
	addr, err := h.Deref(hd)
	if err != nil {
		tb.Fatalf("Deref: %v", err)
	}
	return mustView(tb, h, addr)
}

func TestAllocAndAccessors(t *testing.T) {
	h := testHeap(t, smallCfg())
	o := mustAlloc(t, h, 42, 3, 20)
	if cid := o.ClassID(); cid != 42 {
		t.Fatalf("ClassID = %d; want 42", cid)
	}
	if n := o.NumRefs(); n != 3 {
		t.Fatalf("NumRefs = %d; want 3", n)
	}
	if n := o.DataBytes(); n != 20 {
		t.Fatalf("DataBytes = %d; want 20", n)
	}
}

func TestDataRoundTrip(t *testing.T) {
	h := testHeap(t, smallCfg())
	addr := mustAlloc(t, h, 1, 0, 64)
	src := []byte("some object payload data here")
	if err := h.WriteData(addr, 5, src); err != nil {
		t.Fatalf("WriteData: %v", err)
	}
	dst := make([]byte, len(src))
	if err := h.ReadData(addr, 5, dst); err != nil {
		t.Fatalf("ReadData: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("data = %q, want %q", dst, src)
	}
}

func TestDataOutOfRange(t *testing.T) {
	h := testHeap(t, smallCfg())
	addr := mustAlloc(t, h, 1, 0, 16)
	if err := h.WriteData(addr, 20, make([]byte, 8)); !errors.Is(err, ErrDataOutOfRange) {
		t.Fatalf("err = %v, want ErrDataOutOfRange", err)
	}
	if err := h.ReadData(addr, -1, make([]byte, 1)); !errors.Is(err, ErrDataOutOfRange) {
		t.Fatalf("err = %v, want ErrDataOutOfRange", err)
	}
}

func TestRefSlots(t *testing.T) {
	h := testHeap(t, smallCfg())
	a := mustAlloc(t, h, 1, 2, 0)
	b := mustAlloc(t, h, 2, 0, 8)
	if err := h.SetRef(a, 0, b); err != nil {
		t.Fatalf("SetRef: %v", err)
	}
	got, err := h.GetRef(a, 0)
	if err != nil {
		t.Fatalf("GetRef: %v", err)
	}
	if got != b.Addr() {
		t.Fatalf("GetRef = %#x, want %#x", got, b.Addr())
	}
	// Unset slot reads null.
	if got, _ := h.GetRef(a, 1); got != 0 {
		t.Fatalf("unset slot = %#x, want 0", got)
	}
	// Out-of-range slot.
	if _, err := h.GetRef(a, 2); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("err = %v, want ErrBadSlot", err)
	}
	// The null view is allowed as a target (clearing a field).
	if err := h.SetRef(a, 0, Obj{}); err != nil {
		t.Fatalf("SetRef null: %v", err)
	}
	if got, _ := h.GetRef(a, 0); got != 0 {
		t.Fatalf("cleared slot = %#x, want 0", got)
	}
	// A garbage target has no view to store.
	if _, err := h.View(Addr(3)); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("err = %v, want ErrBadAddress", err)
	}
	// The null view has no slots and no data.
	if _, err := h.GetRef(Obj{}, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("GetRef on null: err = %v, want ErrBadAddress", err)
	}
	if err := h.WriteData(Obj{}, 0, []byte{1}); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("WriteData on null: err = %v, want ErrBadAddress", err)
	}
	if _, err := h.NewHandle(Obj{}, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("NewHandle on null: err = %v, want ErrBadAddress", err)
	}
	if _, err := h.NewWeak(Obj{}); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("NewWeak on null: err = %v, want ErrBadAddress", err)
	}
}

func TestBadAddress(t *testing.T) {
	h := testHeap(t, smallCfg())
	if _, err := h.View(0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("null addr: err = %v, want ErrBadAddress", err)
	}
	if _, err := h.View(Addr(1 << 40)); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("huge addr: err = %v, want ErrBadAddress", err)
	}
}

func TestCollectPreservesReachableGraph(t *testing.T) {
	h := testHeap(t, smallCfg())
	// root -> a -> b, with payload on each.
	b := mustAlloc(t, h, 3, 0, 8)
	if err := h.WriteData(b, 0, []byte("leafleaf")); err != nil {
		t.Fatal(err)
	}
	a := mustAlloc(t, h, 2, 1, 8)
	if err := h.SetRef(a, 0, b); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteData(a, 0, []byte("midmidmi")); err != nil {
		t.Fatal(err)
	}
	root, err := h.NewHandle(a, 0)
	if err != nil {
		t.Fatal(err)
	}

	if err := h.Collect(); err != nil {
		t.Fatalf("Collect: %v", err)
	}

	na := deref(t, h, root)
	if cid := na.ClassID(); cid != 2 {
		t.Fatalf("class after GC = %d, want 2", cid)
	}
	buf := make([]byte, 8)
	if err := h.ReadData(na, 0, buf); err != nil || string(buf) != "midmidmi" {
		t.Fatalf("mid data after GC = %q, %v", buf, err)
	}
	nb, err := h.GetRef(na, 0)
	if err != nil || nb == 0 {
		t.Fatalf("child ref after GC = %#x, %v", nb, err)
	}
	if err := h.ReadData(mustView(t, h, nb), 0, buf); err != nil || string(buf) != "leafleaf" {
		t.Fatalf("leaf data after GC = %q, %v", buf, err)
	}
}

func TestCollectReclaimsGarbage(t *testing.T) {
	h := testHeap(t, Config{InitialSemi: 1 << 16, MaxSemi: 1 << 16})
	keep := mustAlloc(t, h, 1, 0, 16)
	hd, _ := h.NewHandle(keep, 0)
	for i := 0; i < 100; i++ {
		if _, err := h.Alloc(2, 0, 32); err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
	}
	before := h.Stats().LiveBytes
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	after := h.Stats().LiveBytes
	if after >= before {
		t.Fatalf("LiveBytes %d -> %d, want reclamation", before, after)
	}
	// Exactly one object should have been copied.
	if got := h.Stats().ObjectsCopied; got != 1 {
		t.Fatalf("ObjectsCopied = %d, want 1", got)
	}
	if _, err := h.Deref(hd); err != nil {
		t.Fatal(err)
	}
}

func TestSharedObjectCopiedOnce(t *testing.T) {
	h := testHeap(t, smallCfg())
	shared := mustAlloc(t, h, 9, 0, 8)
	a := mustAlloc(t, h, 1, 1, 0)
	b := mustAlloc(t, h, 2, 1, 0)
	if err := h.SetRef(a, 0, shared); err != nil {
		t.Fatal(err)
	}
	if err := h.SetRef(b, 0, shared); err != nil {
		t.Fatal(err)
	}
	ha, _ := h.NewHandle(a, 0)
	hb, _ := h.NewHandle(b, 0)
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	sa, _ := h.GetRef(deref(t, h, ha), 0)
	sb, _ := h.GetRef(deref(t, h, hb), 0)
	if sa != sb || sa == 0 {
		t.Fatalf("shared object duplicated: %#x vs %#x", sa, sb)
	}
	if got := h.Stats().ObjectsCopied; got != 3 {
		t.Fatalf("ObjectsCopied = %d, want 3", got)
	}
}

func TestCycleSurvivesCollection(t *testing.T) {
	h := testHeap(t, smallCfg())
	a := mustAlloc(t, h, 1, 1, 0)
	b := mustAlloc(t, h, 2, 1, 0)
	if err := h.SetRef(a, 0, b); err != nil {
		t.Fatal(err)
	}
	if err := h.SetRef(b, 0, a); err != nil {
		t.Fatal(err)
	}
	ha, _ := h.NewHandle(a, 0)
	if err := h.Collect(); err != nil {
		t.Fatalf("Collect on cyclic graph: %v", err)
	}
	na := deref(t, h, ha)
	nb, _ := h.GetRef(na, 0)
	back, _ := h.GetRef(mustView(t, h, nb), 0)
	if back != na.Addr() {
		t.Fatalf("cycle broken: back=%#x, want %#x", back, na.Addr())
	}
}

func TestWeakRefClearedForGarbage(t *testing.T) {
	h := testHeap(t, smallCfg())
	obj := mustAlloc(t, h, 1, 0, 8)
	w, err := h.NewWeak(obj)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := h.WeakGet(w); !ok {
		t.Fatal("weak ref cleared before GC")
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := h.WeakGet(w); err != nil || ok {
		t.Fatalf("weak ref to garbage still live: ok=%v err=%v", ok, err)
	}
}

func TestWeakRefUpdatedForSurvivor(t *testing.T) {
	h := testHeap(t, smallCfg())
	obj := mustAlloc(t, h, 7, 0, 8)
	if err := h.WriteData(obj, 0, []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	hd, _ := h.NewHandle(obj, 0)
	w, _ := h.NewWeak(obj)
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	addr, ok, err := h.WeakGet(w)
	if err != nil || !ok {
		t.Fatalf("weak ref lost survivor: ok=%v err=%v", ok, err)
	}
	want, _ := h.Deref(hd)
	if addr != want {
		t.Fatalf("weak addr = %#x, want %#x", addr, want)
	}
	buf := make([]byte, 8)
	if err := h.ReadData(mustView(t, h, addr), 0, buf); err != nil || string(buf) != "survivor" {
		t.Fatalf("weak target data = %q, %v", buf, err)
	}
}

func TestWeakDoesNotKeepAlive(t *testing.T) {
	h := testHeap(t, Config{InitialSemi: 1 << 14, MaxSemi: 1 << 14})
	obj := mustAlloc(t, h, 1, 0, 1024)
	if _, err := h.NewWeak(obj); err != nil {
		t.Fatal(err)
	}
	// Allocate enough to force collections; the weakly-referenced object
	// must not pin memory, so this succeeds within a fixed-size heap.
	for i := 0; i < 64; i++ {
		if _, err := h.Alloc(2, 0, 512); err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
	}
}

// TestWeaksClearedCounts: Stats.WeaksCleared moves by one for each weak
// reference a collection clears, and not for a survivor's or for one
// already cleared.
func TestWeaksClearedCounts(t *testing.T) {
	h := testHeap(t, smallCfg())
	live := mustAlloc(t, h, 1, 0, 8)
	if _, err := h.NewHandle(live, 0); err != nil {
		t.Fatal(err)
	}
	for _, o := range []Obj{live, mustAlloc(t, h, 1, 0, 8), mustAlloc(t, h, 1, 0, 8)} {
		if _, err := h.NewWeak(o); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []uint64{2, 2} {
		if err := h.Collect(); err != nil {
			t.Fatal(err)
		}
		if got := h.Stats().WeaksCleared; got != want {
			t.Fatalf("collection %d: WeaksCleared = %d, want %d", i+1, got, want)
		}
	}
}

func TestHandleReleaseMakesGarbage(t *testing.T) {
	h := testHeap(t, smallCfg())
	obj := mustAlloc(t, h, 1, 0, 8)
	hd, _ := h.NewHandle(obj, 0)
	w, _ := h.NewWeak(obj)
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := h.WeakGet(w); !ok {
		t.Fatal("handle did not keep object alive")
	}
	if err := h.Release(hd); err != nil {
		t.Fatal(err)
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := h.WeakGet(w); ok {
		t.Fatal("object survived after handle release")
	}
	// Double release errors.
	if err := h.Release(hd); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("double release: err = %v, want ErrBadHandle", err)
	}
}

func TestAutoCollectOnExhaustion(t *testing.T) {
	h := testHeap(t, Config{InitialSemi: 1 << 13, MaxSemi: 1 << 13})
	// Fill with garbage repeatedly: automatic collection must kick in.
	for i := 0; i < 200; i++ {
		if _, err := h.Alloc(1, 0, 128); err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
	}
	if h.Stats().Collections == 0 {
		t.Fatal("no automatic collection happened")
	}
}

func TestOutOfMemoryAtMax(t *testing.T) {
	h := testHeap(t, Config{InitialSemi: 1 << 13, MaxSemi: 1 << 13})
	var handles []Handle
	var err error
	for i := 0; i < 1000; i++ {
		var addr Addr
		addr, err = h.Alloc(1, 0, 128)
		if err != nil {
			break
		}
		var hd Handle
		hd, err = h.NewHandle(mustView(t, h, addr), 0)
		if err != nil {
			break
		}
		handles = append(handles, hd)
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	_ = handles
}

func TestHeapGrowsUpToMax(t *testing.T) {
	h := testHeap(t, Config{InitialSemi: 1 << 12, MaxSemi: 1 << 16})
	var handles []Handle
	for i := 0; i < 100; i++ {
		hd, err := h.NewHandle(mustAlloc(t, h, 1, 0, 256), 0)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, hd)
	}
	if got := h.Stats().SemiSize; got <= 1<<12 {
		t.Fatalf("SemiSize = %d, want growth beyond %d", got, 1<<12)
	}
	// All objects still intact.
	for _, hd := range handles {
		if _, err := h.Deref(hd); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEPCBackedHeap(t *testing.T) {
	eng, err := mee.New()
	if err != nil {
		t.Fatal(err)
	}
	clk := cycles.New(3.8e9)
	h, err := New(Config{InitialSemi: 1 << 14, MaxSemi: 1 << 18}, func(size int) (Backend, error) {
		return epc.New(size, nil, eng, clk)
	})
	if err != nil {
		t.Fatalf("New EPC heap: %v", err)
	}
	obj := mustAlloc(t, h, 5, 1, 32)
	if err := h.WriteData(obj, 0, []byte("secret in the enclave heap!!")); err != nil {
		t.Fatal(err)
	}
	hd, _ := h.NewHandle(obj, 0)
	if err := h.Collect(); err != nil {
		t.Fatalf("Collect on EPC heap: %v", err)
	}
	na := deref(t, h, hd)
	buf := make([]byte, 28)
	if err := h.ReadData(na, 0, buf); err != nil || string(buf) != "secret in the enclave heap!!" {
		t.Fatalf("EPC heap data after GC = %q, %v", buf, err)
	}
	if clk.Total() == 0 {
		t.Fatal("EPC heap charged no MEE cycles")
	}
	if eng.Stats().LinesEncrypted == 0 {
		t.Fatal("EPC heap performed no encryption")
	}
}

func TestStatsProgression(t *testing.T) {
	h := testHeap(t, smallCfg())
	if _, err := h.NewHandle(mustAlloc(t, h, 1, 0, 8), 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	s := h.Stats()
	if s.Collections != 1 || s.ObjectsCopied != 1 || s.BytesCopied == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Handles != 1 {
		t.Fatalf("Handles = %d, want 1", s.Handles)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := NewPlain(Config{InitialSemi: 4}); err == nil {
		t.Fatal("accepted tiny semispace")
	}
	if _, err := New(smallCfg(), nil); err == nil {
		t.Fatal("accepted nil backend factory")
	}
	if _, err := NewPlain(Config{InitialSemi: 1 << 10, MaxSemi: maxSemiLimit + 1}); err == nil {
		t.Fatal("accepted a semispace bound above maxSemiLimit")
	}
}

// Property: a randomly built object graph survives collection with all
// payloads and topology intact (checked via a shadow model).
func TestQuickGCPreservesGraph(t *testing.T) {
	type node struct {
		handle  Handle
		refs    []int // indices into nodes
		payload []byte
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h, err := NewPlain(Config{InitialSemi: 1 << 14, MaxSemi: 1 << 20})
		if err != nil {
			return false
		}
		n := 2 + r.Intn(20)
		nodes := make([]node, n)
		objs := make([]Obj, n)
		// Allocate all nodes first (no GC can trigger: heap is large
		// enough for this phase), then wire references.
		for i := range nodes {
			nRefs := r.Intn(3)
			payload := make([]byte, 1+r.Intn(24))
			r.Read(payload)
			addr, err := h.Alloc(int32(i), nRefs, len(payload))
			if err != nil {
				return false
			}
			o, err := h.View(addr)
			if err != nil {
				return false
			}
			if err := h.WriteData(o, 0, payload); err != nil {
				return false
			}
			objs[i] = o
			nodes[i] = node{payload: payload, refs: make([]int, nRefs)}
		}
		for i := range nodes {
			for s := range nodes[i].refs {
				target := r.Intn(n)
				nodes[i].refs[s] = target
				if err := h.SetRef(objs[i], s, objs[target]); err != nil {
					return false
				}
			}
			hd, err := h.NewHandle(objs[i], 0)
			if err != nil {
				return false
			}
			nodes[i].handle = hd
		}
		for c := 0; c < 2; c++ {
			if err := h.Collect(); err != nil {
				return false
			}
		}
		// Verify the shadow model.
		newObjs := make([]Obj, n)
		for i := range nodes {
			addr, err := h.Deref(nodes[i].handle)
			if err != nil {
				return false
			}
			if newObjs[i], err = h.View(addr); err != nil {
				return false
			}
		}
		for i := range nodes {
			if cid := newObjs[i].ClassID(); cid != int32(i) {
				return false
			}
			buf := make([]byte, len(nodes[i].payload))
			if err := h.ReadData(newObjs[i], 0, buf); err != nil {
				return false
			}
			if !bytes.Equal(buf, nodes[i].payload) {
				return false
			}
			for s, target := range nodes[i].refs {
				got, err := h.GetRef(newObjs[i], s)
				if err != nil || got != newObjs[target].Addr() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHugeObjectForcesGrowth(t *testing.T) {
	h := testHeap(t, Config{InitialSemi: 1 << 12, MaxSemi: 1 << 20})
	// A single object far larger than the current semispace must grow
	// the heap rather than fail.
	addr := mustAlloc(t, h, 1, 0, 200_000)
	hd, err := h.NewHandle(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5a}, 200_000)
	if err := h.WriteData(addr, 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 200_000)
	if err := h.ReadData(deref(t, h, hd), 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("huge object corrupted by growth/collection")
	}
	// An object that can never fit is rejected cleanly.
	if _, err := h.Alloc(1, 0, 1<<21); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("impossible alloc: %v", err)
	}
}
