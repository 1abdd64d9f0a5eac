package registry

import (
	"sync"
	"testing"
)

func TestNamespaceAddLookupRemove(t *testing.T) {
	ns := NewNamespace()
	h1, added := ns.Add("KVStore", 101)
	if !added || h1 == 0 {
		t.Fatalf("Add = (%d, %v), want fresh handle", h1, added)
	}
	h2, added := ns.Add("Entry", 202)
	if !added || h2 == h1 {
		t.Fatalf("second Add = (%d, %v)", h2, added)
	}
	e, ok := ns.Lookup(h1)
	if !ok || e.Class != "KVStore" || e.Hash != 101 || e.Handle != h1 {
		t.Fatalf("Lookup(%d) = %+v, %v", h1, e, ok)
	}
	if _, ok := ns.Lookup(h1 + 1000); ok {
		t.Fatal("lookup of never-issued handle succeeded")
	}
	if ns.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ns.Len())
	}
	re, ok := ns.Remove(h1)
	if !ok || re.Hash != 101 {
		t.Fatalf("Remove = %+v, %v", re, ok)
	}
	if _, ok := ns.Lookup(h1); ok {
		t.Fatal("removed handle still resolves")
	}
	if _, ok := ns.Remove(h1); ok {
		t.Fatal("double remove succeeded")
	}
}

// TestNamespaceCanonicalises: adding the same hash twice keeps one
// handle, so teardown releases each object exactly once.
func TestNamespaceCanonicalises(t *testing.T) {
	ns := NewNamespace()
	h1, added := ns.Add("KVStore", 7)
	if !added {
		t.Fatal("first add not fresh")
	}
	h2, added := ns.Add("KVStore", 7)
	if added || h2 != h1 {
		t.Fatalf("duplicate add = (%d, %v), want (%d, false)", h2, added, h1)
	}
	if ns.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ns.Len())
	}
	// After removal the hash can be renamed.
	ns.Remove(h1)
	h3, added := ns.Add("KVStore", 7)
	if !added || h3 == h1 {
		t.Fatalf("re-add = (%d, %v)", h3, added)
	}
}

func TestNamespaceDrainCloses(t *testing.T) {
	ns := NewNamespace()
	ns.Add("A", 1)
	ns.Add("B", 2)
	entries := ns.Drain()
	if len(entries) != 2 {
		t.Fatalf("Drain returned %d entries, want 2", len(entries))
	}
	if ns.Len() != 0 {
		t.Fatalf("Len after drain = %d", ns.Len())
	}
	if h, added := ns.Add("C", 3); added || h != 0 {
		t.Fatalf("Add after drain = (%d, %v), want closed", h, added)
	}
	if again := ns.Drain(); len(again) != 0 {
		t.Fatalf("second Drain returned %d entries", len(again))
	}
}

func TestNamespaceConcurrent(t *testing.T) {
	ns := NewNamespace()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				hash := int64(g*1000 + i)
				h, _ := ns.Add("C", hash)
				if e, ok := ns.Lookup(h); ok && e.Hash != hash {
					t.Errorf("lookup(%d) = hash %d, want %d", h, e.Hash, hash)
				}
				if i%3 == 0 {
					ns.Remove(h)
				}
			}
		}(g)
	}
	wg.Wait()
	if ns.Len() == 0 {
		t.Fatal("expected surviving handles")
	}
}

// BenchmarkNamespaceLookupParallel guards the RWMutex read path: session
// request dispatch does a Lookup per call, so read-mostly traffic from
// many goroutines must not serialise on the namespace. A regression back
// to an exclusive lock shows up here as a collapse in parallel ops/s.
func BenchmarkNamespaceLookupParallel(b *testing.B) {
	ns := NewNamespace()
	handles := make([]int64, 1024)
	for i := range handles {
		h, _ := ns.Add("C", int64(i))
		handles[i] = h
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h := handles[i&(len(handles)-1)]
			if _, ok := ns.Lookup(h); !ok {
				b.Fatal("lost handle")
			}
			i++
		}
	})
}

// BenchmarkNamespaceMixed is the same traffic with a 1/64 write mix —
// the realistic session profile (mostly calls, occasional export).
func BenchmarkNamespaceMixed(b *testing.B) {
	ns := NewNamespace()
	handles := make([]int64, 1024)
	for i := range handles {
		h, _ := ns.Add("C", int64(i))
		handles[i] = h
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%64 == 0 {
				h, _ := ns.Add("C", int64(100000+i))
				ns.Remove(h)
			} else {
				ns.Lookup(handles[i&(len(handles)-1)])
			}
			i++
		}
	})
}
