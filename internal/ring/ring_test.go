package ring

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"montsalvat/internal/cycles"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/telemetry"
)

// echoGroup builds a group whose handler echoes the request payload
// back as the response (in place when it fits).
func echoGroup(t *testing.T, cfg Config) (*Group, *atomic.Uint64) {
	t.Helper()
	var served atomic.Uint64
	h := func(id int, req, resp []byte, sp *telemetry.Span) ([]byte, bool, error) {
		served.Add(1)
		// req and resp alias the same slot: consume req fully first.
		cp := append([]byte(nil), req...)
		return append(resp, cp...), false, nil
	}
	return newGroup(t, cfg, h), &served
}

// newGroup builds a group of cfg over fresh slot memory, with a fresh
// clock and no residency, and closes it at cleanup.
func newGroup(t *testing.T, cfg Config, h Handler) *Group {
	t.Helper()
	g, err := NewGroup(cfg, NewSlots(cfg), cycles.New(simcfg.CPUHz), h, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func callEcho(g *Group, payload []byte) ([]byte, error) {
	var got []byte
	err := g.TryCall(7, len(payload), nil,
		func(slot []byte) ([]byte, error) { return append(slot, payload...), nil },
		func(resp []byte) error {
			got = append([]byte(nil), resp...)
			return nil
		})
	return got, err
}

func TestRoundTrip(t *testing.T) {
	g, served := echoGroup(t, Config{Workers: 1, SlotBytes: 256})
	payload := []byte("sealed through the slot")
	got, err := callEcho(g, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo mismatch: %q != %q", got, payload)
	}
	if served.Load() != 1 {
		t.Fatalf("served %d calls, want 1", served.Load())
	}
	st := g.Stats()
	if st.Submits != 1 {
		t.Fatalf("stats %+v, want 1 submit", st)
	}
	// Request and response each sealed once: plaintext + 16-byte tag.
	wantSealed := uint64(2 * (len(payload) + gcmOverhead))
	if st.SealedBytes != wantSealed {
		t.Fatalf("sealed %d bytes, want %d", st.SealedBytes, wantSealed)
	}
	// One hand-off each way plus the crypto pass of each direction.
	want := 2*simcfg.RingSubmitCycles + 2*int64(float64(len(payload)+gcmOverhead)/simcfg.RingCryptoBytesPerCycle)
	if got := g.clock.Total(); got != want {
		t.Fatalf("call charged %d cycles, want %d", got, want)
	}
}

// TestSlotWraparound pushes many sequential calls through one ring,
// whose one slot every call reuses, with distinct payloads to catch any
// slot/sequence confusion (a wrong nonce would also fail the GCM open).
func TestSlotWraparound(t *testing.T) {
	g, served := echoGroup(t, Config{Workers: 1, SlotBytes: 128})
	for i := 0; i < 64; i++ {
		payload := []byte(fmt.Sprintf("call-%d", i))
		got, err := callEcho(g, payload)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("call %d: echo mismatch %q", i, got)
		}
	}
	if served.Load() != 64 {
		t.Fatalf("served %d, want 64", served.Load())
	}
}

// TestBatchRunsEachEntryOnOneSlot runs a batch of many entries through
// a one-slot ring: each entry runs once, in order, and pays its own two
// hand-offs.
func TestBatchRunsEachEntryOnOneSlot(t *testing.T) {
	var order []string
	h := func(id int, req, resp []byte, sp *telemetry.Span) ([]byte, bool, error) {
		order = append(order, string(req))
		return resp, false, nil
	}
	g := newGroup(t, Config{Workers: 1, SlotBytes: 128}, h)
	const n = 37
	entries := make([]BatchEntry, n)
	for i := range entries {
		entries[i] = BatchEntry{ID: 3, Req: []byte(fmt.Sprintf("batched-%02d", i))}
	}
	if ran, err := g.TryBatch(nil, entries); err != nil || ran != n {
		t.Fatalf("TryBatch = %d, %v; want %d, nil", ran, err, n)
	}
	if len(order) != n {
		t.Fatalf("handler ran %d times, want %d", len(order), n)
	}
	for i, e := range entries {
		if order[i] != string(e.Req) {
			t.Fatalf("entry %d ran as %q, want %q", i, order[i], e.Req)
		}
	}
	if st := g.Stats(); st.Submits != n {
		t.Fatalf("stats %+v, want %d submits", st, n)
	}
	// Each entry: its request and an empty response sealed, and two
	// hand-offs.
	per := 2*simcfg.RingSubmitCycles +
		int64(float64(len(entries[0].Req)+gcmOverhead)/simcfg.RingCryptoBytesPerCycle) +
		int64(float64(gcmOverhead)/simcfg.RingCryptoBytesPerCycle)
	if got := g.clock.Total(); got != n*per {
		t.Fatalf("batch charged %d cycles, want %d x %d", got, n, per)
	}
}

// TestIdleGapsChargeNoWakeup: a call's ledger does not depend on how
// long the ring sat idle before it. Calls spaced by idle gaps, long and
// short, each charge exactly what a back-to-back call charges.
func TestIdleGapsChargeNoWakeup(t *testing.T) {
	g, _ := echoGroup(t, Config{Workers: 1, SlotBytes: 128})
	payload := []byte("ding")
	var per int64
	for i := 0; i < 20; i++ {
		before := g.clock.Total()
		if _, err := callEcho(g, payload); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		spent := g.clock.Total() - before
		if i == 0 {
			per = spent
		} else if spent != per {
			t.Fatalf("call %d charged %d cycles, call 0 charged %d", i, spent, per)
		}
		if i%3 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func TestTooLarge(t *testing.T) {
	g, served := echoGroup(t, Config{Workers: 1, SlotBytes: 64})
	if _, err := callEcho(g, make([]byte, 65)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	ran, err := g.TryBatch(nil, []BatchEntry{{ID: 1, Req: make([]byte, 65)}})
	if !errors.Is(err, ErrTooLarge) || ran != 0 {
		t.Fatalf("batch: got %v, want ErrTooLarge", err)
	}
	if served.Load() != 0 {
		t.Fatal("oversized submissions must not reach the handler")
	}
}

// TestBusyFallback occupies every ring's producer side and verifies the
// group reports ErrBusy instead of blocking (the deadlock-freedom
// contract the caller's frame fallback relies on).
func TestBusyFallback(t *testing.T) {
	g, _ := echoGroup(t, Config{Workers: 2, SlotBytes: 64})
	for _, r := range g.rings {
		r.mu.Lock()
	}
	defer func() {
		for _, r := range g.rings {
			r.mu.Unlock()
		}
	}()
	if _, err := callEcho(g, []byte("x")); !errors.Is(err, ErrBusy) {
		t.Fatalf("got %v, want ErrBusy", err)
	}
	if st := g.Stats(); st.Busy != 1 {
		t.Fatalf("busy stat %d, want 1", st.Busy)
	}
}

func TestHandlerError(t *testing.T) {
	boom := errors.New("boom")
	h := func(id int, req, resp []byte, sp *telemetry.Span) ([]byte, bool, error) {
		return nil, false, boom
	}
	g := newGroup(t, Config{Workers: 1, SlotBytes: 64}, h)
	_, cerr := callEcho(g, []byte("x"))
	if !errors.Is(cerr, boom) {
		t.Fatalf("got %v, want handler error", cerr)
	}
}

// TestOverflowResponse has the handler return a response larger than the
// slot via the overflow path and checks it reaches the producer intact.
func TestOverflowResponse(t *testing.T) {
	big := bytes.Repeat([]byte("L"), 4096)
	h := func(id int, req, resp []byte, sp *telemetry.Span) ([]byte, bool, error) {
		return append([]byte(nil), big...), true, nil
	}
	g := newGroup(t, Config{Workers: 1, SlotBytes: 64}, h)
	var got []byte
	err := g.TryCall(1, 1, nil,
		func(slot []byte) ([]byte, error) { return append(slot, 'q'), nil },
		func(resp []byte) error { got = append([]byte(nil), resp...); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatalf("overflow response corrupted: %d bytes", len(got))
	}
	st := g.Stats()
	if st.Overflows != 1 || st.OverflowBytes != uint64(len(big)) {
		t.Fatalf("stats %+v, want 1 overflow of %d bytes", st, len(big))
	}
}

// TestCloseMidCallReportsTheRun: a call whose handler is running when
// the group closes completes with the handler's outcome. ErrStopped
// tells the caller nothing ran, so the call would cross again by the
// frame path: a second run of one call.
func TestCloseMidCallReportsTheRun(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var runs atomic.Int32
	h := func(id int, req, resp []byte, sp *telemetry.Span) ([]byte, bool, error) {
		runs.Add(1)
		close(entered)
		<-release
		return append(resp, 'k'), false, nil
	}
	g := newGroup(t, Config{Workers: 1, SlotBytes: 64}, h)
	callErr := make(chan error, 1)
	go func() {
		_, err := callEcho(g, []byte("x"))
		callErr <- err
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	// The call must not return while its handler runs, stop or not.
	select {
	case err := <-callErr:
		t.Fatalf("the call returned %v while its handler was still running", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-callErr; err != nil {
		t.Fatalf("a call whose handler ran returned %v, want its outcome (nil)", err)
	}
	<-closed
	if n := runs.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1", n)
	}
}

// TestCloseMidBatchRunsEachEntryOnce: a Close that begins while the
// second of three void entries runs stops the batch after it. TryBatch reports the two
// that ran, so a caller that sends the rest another way, as the world's
// batch flush does, runs every entry exactly once.
func TestCloseMidBatchRunsEachEntryOnce(t *testing.T) {
	entered := make(chan struct{})
	var g *Group
	var runs [3]atomic.Int32
	h := func(id int, req, resp []byte, sp *telemetry.Span) ([]byte, bool, error) {
		runs[req[0]].Add(1)
		if req[0] == 1 {
			close(entered)
			for !g.closed.Load() {
				runtime.Gosched()
			}
		}
		return resp, false, nil
	}
	g = newGroup(t, Config{Workers: 1, SlotBytes: 64}, h)
	entries := []BatchEntry{{Req: []byte{0}}, {Req: []byte{1}}, {Req: []byte{2}}}
	type result struct {
		ran int
		err error
	}
	done := make(chan result, 1)
	go func() {
		ran, err := g.TryBatch(nil, entries)
		done <- result{ran, err}
	}()
	<-entered
	g.Close()
	res := <-done
	if res.ran != 2 || res.err != nil {
		t.Fatalf("TryBatch = %d, %v; want 2, nil", res.ran, res.err)
	}
	for _, e := range entries[res.ran:] {
		runs[e.Req[0]].Add(1) // the caller's other route
	}
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Fatalf("entry %d ran %d times, want 1", i, n)
		}
	}
}

// TestCloseWaitsForProducers: Close does not return while a producer
// that got past the closed check still fills a slot, so the slot memory
// it hands on is free: a new group over it serves calls. The call whose
// fill Close overtook runs nothing and says so.
func TestCloseWaitsForProducers(t *testing.T) {
	cfg := Config{Workers: 1, SlotBytes: 64}
	mem := NewSlots(cfg)
	echo := func(id int, req, resp []byte, sp *telemetry.Span) ([]byte, bool, error) {
		return append(resp, req...), false, nil
	}
	g, err := NewGroup(cfg, mem, cycles.New(simcfg.CPUHz), echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	filling, release := make(chan struct{}), make(chan struct{})
	callErr := make(chan error, 1)
	go func() {
		callErr <- g.TryCall(1, 1, nil, func(slot []byte) ([]byte, error) {
			close(filling)
			<-release
			return append(slot, 'x'), nil
		}, nil)
	}()
	<-filling
	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a producer was filling a slot")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if err := <-callErr; !errors.Is(err, ErrStopped) {
		t.Fatalf("a call filled while Close began returned %v, want ErrStopped", err)
	}
	next, err := NewGroup(cfg, mem, cycles.New(simcfg.CPUHz), echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	if got, err := callEcho(next, []byte("reused")); err != nil || string(got) != "reused" {
		t.Fatalf("call on a group over the handed-on slots: %q, %v", got, err)
	}
}

// TestResidencyPerRing: NewGroup enters once per ring before it
// returns, and Close leaves each of them once.
func TestResidencyPerRing(t *testing.T) {
	var held, entered atomic.Int32
	enter := func() (func(), error) {
		held.Add(1)
		entered.Add(1)
		return func() { held.Add(-1) }, nil
	}
	cfg := Config{Workers: 3, SlotBytes: 64}
	g, err := NewGroup(cfg, NewSlots(cfg), cycles.New(simcfg.CPUHz), nil, enter)
	if err != nil {
		t.Fatal(err)
	}
	if n := held.Load(); n != 3 {
		t.Fatalf("%d residencies held after NewGroup, want 3", n)
	}
	g.Close()
	g.Close()
	if n, e := held.Load(), entered.Load(); n != 0 || e != 3 {
		t.Fatalf("after Close: %d held of %d entered, want 0 of 3", n, e)
	}
	// An entry that fails leaves the ones before it.
	fail := errors.New("no slot")
	enter = func() (func(), error) {
		if held.Load() == 2 {
			return nil, fail
		}
		held.Add(1)
		return func() { held.Add(-1) }, nil
	}
	if _, err := NewGroup(cfg, NewSlots(cfg), cycles.New(simcfg.CPUHz), nil, enter); !errors.Is(err, fail) {
		t.Fatalf("NewGroup = %v, want the entry error", err)
	}
	if n := held.Load(); n != 0 {
		t.Fatalf("%d residencies held after a failed NewGroup, want 0", n)
	}
}

func TestClosedGroup(t *testing.T) {
	g, _ := echoGroup(t, Config{Workers: 1, SlotBytes: 64})
	g.Close()
	if _, err := callEcho(g, []byte("x")); !errors.Is(err, ErrStopped) {
		t.Fatalf("got %v, want ErrStopped", err)
	}
	g.Close() // idempotent
}

// TestConcurrentStress hammers one small group from many producers
// mixing single calls and batches; run with -race this exercises the
// producer locks' hand-over of the slots and the shared counters.
func TestConcurrentStress(t *testing.T) {
	g, served := echoGroup(t, Config{Workers: 2, SlotBytes: 256})
	const (
		producers = 8
		perProd   = 50
	)
	var wg sync.WaitGroup
	var riding, fell atomic.Uint64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				if i%5 == 4 {
					entries := make([]BatchEntry, 3)
					for j := range entries {
						entries[j] = BatchEntry{ID: 2, Req: []byte(fmt.Sprintf("p%d-b%d-%d", p, i, j))}
					}
					switch ran, err := g.TryBatch(nil, entries); {
					case err == nil && ran == 3:
						riding.Add(3)
					case errors.Is(err, ErrBusy):
						fell.Add(3)
					default:
						t.Errorf("batch: %v", err)
						return
					}
					continue
				}
				payload := []byte(fmt.Sprintf("p%d-c%d", p, i))
				got, err := callEcho(g, payload)
				switch {
				case err == nil:
					riding.Add(1)
					if !bytes.Equal(got, payload) {
						t.Errorf("p%d call %d: echo mismatch", p, i)
						return
					}
				case errors.Is(err, ErrBusy):
					fell.Add(1)
				default:
					t.Errorf("p%d call %d: %v", p, i, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if served.Load() != riding.Load() {
		t.Fatalf("served %d != rode %d", served.Load(), riding.Load())
	}
	if riding.Load() == 0 {
		t.Fatal("no call rode the rings")
	}
	if st := g.Stats(); st.Submits != riding.Load() {
		t.Fatalf("%d submits for %d calls that rode", st.Submits, riding.Load())
	}
}
