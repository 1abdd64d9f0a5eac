package lockrank

import (
	"strings"
	"sync"
	"testing"
)

// TryLock attempts the acquisition without blocking.
func (m *Mutex) TryLock() bool {
	if !m.mu.TryLock() {
		return false
	}
	if m.rank != 0 && enabled.Load() {
		acquire(m.rank, m.name)
	}
	return true
}

func ranked(rank int32, name string) *Mutex {
	m := &Mutex{}
	m.SetRank(rank, name)
	return m
}

func TestOrderedAcquisitionClean(t *testing.T) {
	defer Enable()()
	outer := ranked(RankFabricNode, "n.mu")
	inner := ranked(RankManager, "m.mu")
	outer.Lock()
	inner.Lock()
	inner.Unlock()
	outer.Unlock()
	if v := TakeViolations(); len(v) != 0 {
		t.Fatalf("clean ordering reported violations: %v", v)
	}
}

func TestInversionDetected(t *testing.T) {
	defer Enable()()
	outer := ranked(RankFabricNode, "n.mu")
	inner := ranked(RankManager, "m.mu")
	inner.Lock()
	outer.Lock() // inversion: outer rank acquired while holding inner
	outer.Unlock()
	inner.Unlock()
	v := TakeViolations()
	if len(v) != 1 {
		t.Fatalf("want 1 violation, got %v", v)
	}
	if !strings.Contains(v[0], "n.mu") || !strings.Contains(v[0], "m.mu") {
		t.Fatalf("violation names missing: %q", v[0])
	}
}

func TestEqualRankDetected(t *testing.T) {
	defer Enable()()
	a := ranked(RankWorldHeap, "heapMu(t)")
	b := ranked(RankWorldHeap, "heapMu(u)")
	a.Lock()
	b.Lock()
	b.Unlock()
	a.Unlock()
	if v := TakeViolations(); len(v) != 1 {
		t.Fatalf("want same-rank violation, got %v", v)
	}
}

func TestDisabledIsSilent(t *testing.T) {
	outer := ranked(RankFabricNode, "n.mu")
	inner := ranked(RankManager, "m.mu")
	inner.Lock()
	outer.Lock()
	outer.Unlock()
	inner.Unlock()
	if v := TakeViolations(); len(v) != 0 {
		t.Fatalf("disabled checker recorded violations: %v", v)
	}
}

func TestTryLockAndConcurrency(t *testing.T) {
	defer Enable()()
	m := ranked(RankWorldHeap, "heapMu")
	if !m.TryLock() {
		t.Fatal("TryLock on free mutex failed")
	}
	if m.TryLock() {
		t.Fatal("TryLock on held mutex succeeded")
	}
	m.Unlock()

	// Concurrent goroutines each take the same ordered pair; per-
	// goroutine tracking must not cross wires.
	outer := ranked(RankFabricNode, "n.mu")
	inner := ranked(RankShipIO, "ship.ioMu")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				outer.Lock()
				inner.Lock()
				inner.Unlock()
				outer.Unlock()
			}
		}()
	}
	wg.Wait()
	if v := TakeViolations(); len(v) != 0 {
		t.Fatalf("concurrent ordered use reported violations: %v", v)
	}
}
