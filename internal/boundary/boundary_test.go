package boundary

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"montsalvat/internal/cycles"
	"montsalvat/internal/ring"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/telemetry"
)

// fakeTransport counts full transitions without charging anything.
type fakeTransport struct {
	mu     sync.Mutex
	ecalls map[int]int
	ocalls map[int]int
}

func newFakeTransport() *fakeTransport {
	return &fakeTransport{ecalls: make(map[int]int), ocalls: make(map[int]int)}
}

func (t *fakeTransport) Ecall(id int, fn func() error) error {
	t.mu.Lock()
	t.ecalls[id]++
	t.mu.Unlock()
	return fn()
}

func (t *fakeTransport) Ocall(id int, fn func() error) error {
	t.mu.Lock()
	t.ocalls[id]++
	t.mu.Unlock()
	return fn()
}

func TestDispatcherFullWithoutPools(t *testing.T) {
	tr := newFakeTransport()
	d := NewDispatcher(tr, nil)
	if err := d.Invoke(true, 1, nil, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := d.Invoke(false, 2, nil, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if tr.ecalls[1] != 1 || tr.ocalls[2] != 1 {
		t.Fatalf("transport counts: %v %v", tr.ecalls, tr.ocalls)
	}
	if st := d.Stats(); st.FullCalls != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDispatcherObservesBodyCycles: with a clock and the body-cycles
// histogram attached, a transition reports what its body charged.
func TestDispatcherObservesBodyCycles(t *testing.T) {
	clk := cycles.New(simcfg.CPUHz, false)
	reg := telemetry.NewRegistry()
	d := NewDispatcher(newFakeTransport(), clk)
	d.SetTelemetry(reg)
	if err := d.Invoke(true, 5, nil, func() error { clk.Charge(700); return nil }); err != nil {
		t.Fatal(err)
	}
	h := reg.Snapshot().Histograms["montsalvat_boundary_body_cycles"]
	if h.Count != 1 || h.Sum != 700 {
		t.Fatalf("body-cycles histogram = %+v, want one observation of 700", h)
	}
}

func TestDispatcherPropagatesBodyError(t *testing.T) {
	tr := newFakeTransport()
	d := NewDispatcher(tr, nil)
	boom := errors.New("boom")
	if err := d.Invoke(true, 1, nil, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if st := d.Stats(); st.FullCalls != 1 || tr.ecalls[1] != 1 {
		t.Fatalf("body error retried or lost: stats = %+v, ecalls = %v", st, tr.ecalls)
	}
}

// TestDispatcherClose: the dispatcher owns its ring groups. A call rides
// while they run; after Close the ring reports "didn't run", counted as
// a ring fallback, and the caller's full transition still works.
func TestDispatcherClose(t *testing.T) {
	echo := func(id int, req, resp []byte, sp *telemetry.Span) ([]byte, bool, error) {
		return resp, false, nil
	}
	ecalls, err := ring.NewGroup(ring.Config{Workers: 1, Slots: 4, SlotBytes: 64}, nil, echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newFakeTransport()
	d := NewDispatcher(tr, nil)
	d.UseRings(ecalls, nil)
	ride := func() (bool, error) {
		return d.InvokeRing(true, 1, 1, nil,
			func(slot []byte) ([]byte, error) { return append(slot, 'x'), nil },
			func([]byte) error { return nil })
	}
	if ran, err := ride(); !ran || err != nil {
		t.Fatalf("live ring: ran=%v err=%v", ran, err)
	}
	if ran, err := d.InvokeRing(false, 1, 1, nil, nil, nil); ran || err != nil {
		t.Fatalf("direction without a group: ran=%v err=%v", ran, err)
	}
	d.Close()
	if ran, err := ride(); ran || err != nil {
		t.Fatalf("closed ring: ran=%v err=%v, want a silent fallback", ran, err)
	}
	if rs := d.RingStats(); rs.RingCalls != 1 || rs.RingFallbacks != 1 {
		t.Fatalf("ring stats = %+v, want 1 call, 1 fallback", rs)
	}
	if err := d.Invoke(true, 1, nil, func() error { return nil }); err != nil || tr.ecalls[1] != 1 {
		t.Fatalf("full transition after Close: err=%v ecalls=%v", err, tr.ecalls)
	}
}

func TestQueueOrderAndWatermark(t *testing.T) {
	var got []int64
	var batches []int
	q := NewQueue(4, func(es []Entry) error {
		batches = append(batches, len(es))
		for _, e := range es {
			got = append(got, e.Hash)
		}
		return nil
	})
	for i := 0; i < 10; i++ {
		if err := q.Enqueue(Entry{Hash: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, h := range got {
		if h != int64(i) {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
	if len(batches) != 3 || batches[0] != 4 || batches[1] != 4 || batches[2] != 2 {
		t.Fatalf("batches = %v, want [4 4 2]", batches)
	}
	if st := q.Stats(); st.Flushes != 3 || st.BatchedCalls != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after flush", q.Len())
	}
}

func TestQueueFlushEmptyIsNoop(t *testing.T) {
	q := NewQueue(4, func(es []Entry) error { return errors.New("must not run") })
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Flushes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueConcurrentEnqueueKeepsAllCalls(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int64]bool)
	q := NewQueue(8, func(es []Entry) error {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range es {
			if seen[e.Hash] {
				return fmt.Errorf("hash %d flushed twice", e.Hash)
			}
			seen[e.Hash] = true
		}
		return nil
	})
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := q.Enqueue(Entry{Hash: int64(w*per + i)}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != workers*per {
		t.Fatalf("flushed %d calls, want %d", len(seen), workers*per)
	}
}

func TestBufPoolReuse(t *testing.T) {
	p := NewBufPool()
	buf := p.Get(100)
	if len(buf) != 0 || cap(buf) < 100 {
		t.Fatalf("Get: len=%d cap=%d", len(buf), cap(buf))
	}
	buf = append(buf, 1, 2, 3)
	p.Put(buf)
	again := p.Get(2)
	if len(again) != 0 {
		t.Fatalf("recycled buffer not reset: len=%d", len(again))
	}
	// Oversized buffers are dropped rather than pinned.
	p.Put(make([]byte, 0, maxPooledCap+1))
	p.Put(nil)
}

func TestBufPoolSizeClasses(t *testing.T) {
	p := NewBufPool()
	// A buffer recycled into a small class must not satisfy a larger
	// request with insufficient capacity.
	p.Put(make([]byte, 0, 256))
	big := p.Get(10000)
	if cap(big) < 10000 {
		t.Fatalf("Get(10000): cap=%d", cap(big))
	}
	// Each class hands back at least its class size, so repeated small
	// requests reuse one allocation.
	for want, n := range map[int]int{256: 1, 4096: 300, 65536: 5000, 1 << 20: 70000} {
		buf := p.Get(n)
		if cap(buf) < want {
			t.Fatalf("Get(%d): cap=%d, want >= %d", n, cap(buf), want)
		}
		p.Put(buf)
		if again := p.Get(n); cap(again) < n {
			t.Fatalf("recycled Get(%d): cap=%d", n, cap(again))
		}
	}
	// Beyond the largest class: exact allocation, never pooled.
	huge := p.Get(maxPooledCap + 1)
	if cap(huge) < maxPooledCap+1 {
		t.Fatalf("huge Get: cap=%d", cap(huge))
	}
	p.Put(huge)
}
