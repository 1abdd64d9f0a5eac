package ring

import (
	"errors"
	"math/bits"
	"sync/atomic"

	"montsalvat/internal/cycles"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/telemetry"
)

// Config sizes one ring group (one crossing direction).
type Config struct {
	// Workers is the number of rings, each with its own resident
	// consumer worker.
	Workers int
	// Slots is the submission-queue depth per ring (rounded up to a
	// power of two).
	Slots int
	// SlotBytes is the plaintext payload capacity of one slot; the
	// backing buffer adds the 16-byte GCM tag.
	SlotBytes int
	// PollSpins is the poll budget before the sleep protocol engages
	// (DefaultPollSpins when zero).
	PollSpins int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = simcfg.DefaultRingWorkers
	}
	if c.Slots <= 0 {
		c.Slots = simcfg.DefaultRingSlots
	}
	if c.SlotBytes <= 0 {
		c.SlotBytes = simcfg.DefaultRingSlotBytes
	}
	if c.PollSpins <= 0 {
		c.PollSpins = DefaultPollSpins
	}
	return c
}

// BatchEntry is one void (result-independent) call submitted through
// TryBatch: the routine id its slot is sealed under and Req, the
// complete encoded request, which TryBatch copies into the slot as is.
type BatchEntry struct {
	ID  int
	Req []byte
}

// Stats is an aggregate snapshot of a ring group's activity counters.
type Stats struct {
	// Submits counts published submission entries.
	Submits uint64
	// Doorbells counts submissions that found the consumer asleep and
	// paid the futex-wake cost (the doorbell rate is Doorbells/Submits).
	Doorbells uint64
	// Stalls counts slot-full producer stalls (ring backpressure).
	Stalls uint64
	// Busy counts TryCall/TryBatch attempts that found every producer
	// occupied and fell back to the frame path.
	Busy uint64
	// Wakeups counts consumer drain passes; Consumed/Wakeups is the
	// adaptive batch size.
	Wakeups uint64
	// Consumed counts entries drained by consumers.
	Consumed uint64
	// Overflows counts responses too large for in-place sealing that
	// crossed as plain bounce buffers instead.
	Overflows uint64
	// SealedBytes is the total bytes through the in-place crypto pass
	// (both directions).
	SealedBytes uint64
	// OverflowBytes is the total bytes bounced via overflow buffers.
	OverflowBytes uint64
}

// Group is a set of SPSC rings serving one crossing direction. Callers
// submit through TryCall/TryBatch, which are strictly non-blocking on
// ring acquisition: when every ring's producer side is occupied the
// group reports ErrBusy and the caller falls back to the frame
// path, so nested call chains can never deadlock on ring capacity.
type Group struct {
	cfg   Config
	rings []*Ring

	next   atomic.Uint32
	busy   atomic.Uint64
	stalls atomic.Uint64

	hBatch *telemetry.Histogram

	closed atomic.Bool
}

// Slots is the slot memory of a group. A group owns it from NewGroup
// until its Close returns; then it may back the next group of the same
// Config. A slot's fields but its buffer are set anew on every reserve.
type Slots []slot

// NewSlots allocates the slot memory of a group of cfg.
func NewSlots(cfg Config) Slots {
	cfg = cfg.withDefaults()
	mem := make(Slots, cfg.Workers<<bits.Len(uint(cfg.Slots-1)))
	for i := range mem {
		mem[i].buf = make([]byte, 0, cfg.SlotBytes+gcmOverhead)
	}
	return mem
}

// NewGroup builds the rings over mem (from NewSlots(cfg)), generates the
// group's AES-256-GCM session key, and starts one resident consumer
// worker per ring. enter, when non-nil, establishes the worker's
// residency on the consuming side (e.g. taking an enclave TCS slot) and
// returns the matching leave.
func NewGroup(cfg Config, mem Slots, clock *cycles.Clock, h Handler, enter func() (func(), error)) (*Group, error) {
	cfg = cfg.withDefaults()
	n := len(mem) / cfg.Workers
	aead, err := newAEAD()
	if err != nil {
		return nil, err
	}
	g := &Group{cfg: cfg}
	for i := 0; i < cfg.Workers; i++ {
		r := newRing(i, mem[i*n:(i+1)*n:(i+1)*n], cfg.PollSpins, aead, clock, h)
		g.rings = append(g.rings, r)
		go r.serve(enter, g.observeBatch)
	}
	return g, nil
}

// SetTelemetry attaches the adaptive-batching histogram (entries
// consumed per consumer wakeup) for this group's direction.
func (g *Group) SetTelemetry(reg *telemetry.Registry, dir string) {
	if g == nil || reg == nil {
		return
	}
	g.hBatch = reg.Histogram("montsalvat_ring_batch_per_wakeup", "dir", dir)
}

func (g *Group) observeBatch(n int) {
	g.hBatch.Observe(int64(n))
}

// Workers reports the group's resident consumer workers, one per ring;
// 0 for a nil group.
func (g *Group) Workers() int {
	if g == nil {
		return 0
	}
	return len(g.rings)
}

// acquire try-locks a ring's producer side, round-robin from a rotating
// start so load spreads across rings. Strictly non-blocking.
func (g *Group) acquire() *Ring {
	start := int(g.next.Add(1))
	for i := 0; i < len(g.rings); i++ {
		r := g.rings[(start+i)%len(g.rings)]
		if r.prodMu.TryLock() {
			return r
		}
	}
	g.busy.Add(1)
	return nil
}

// TryCall submits one call through a ring: fill encodes the request
// directly into the slot (zero intermediate copies), the sealed slot
// crosses, and done — when non-nil — receives the opened response,
// which aliases slot memory and is valid only until TryCall returns.
// need is the exact encoded request size (from the wire size
// precomputes). Returns ErrTooLarge / ErrBusy / ErrStopped without
// side effects when the call cannot ride the ring; any other error is
// from the remote handler or from done.
func (g *Group) TryCall(id, need int, sp *telemetry.Span, fill func(slot []byte) ([]byte, error), done func(resp []byte) error) error {
	if g == nil || g.closed.Load() {
		return ErrStopped
	}
	if need > g.cfg.SlotBytes {
		return ErrTooLarge
	}
	r := g.acquire()
	if r == nil {
		return ErrBusy
	}
	defer r.prodMu.Unlock()
	s, idx, err := g.reserve(r)
	if err != nil {
		return err
	}
	plain, err := fill(s.buf[:0])
	if err != nil {
		return err
	}
	s.id = id
	s.sp = sp
	s.reqN = len(r.seal(s, plain, nonceReq))
	r.publish(idx)
	if err := r.awaitComp(idx); err != nil {
		return err
	}
	err = r.finish(s, done)
	r.reaped = idx + 1
	return err
}

// TryBatch submits a set of void calls as individual ring entries —
// the adaptive-batching shape: every entry published while the
// consumer is draining rides the same wakeup. When the ring fills
// mid-batch the producer stalls on the oldest completion and drains
// (backpressure), so batches larger than the ring depth still go
// through. sp is the flush's trace span (nil when unsampled), handed to
// every entry's handler. It returns how many leading entries ran; the
// rest did not and must cross another way. Returns ErrTooLarge (before
// submitting anything) when any entry exceeds the slot, ErrBusy when no
// producer slot is free, ErrStopped when the group closed before any
// entry ran; otherwise the handler errors of the entries that ran,
// joined. A Close part-way through the batch stops it after the entry
// the consumer is running.
func (g *Group) TryBatch(sp *telemetry.Span, entries []BatchEntry) (int, error) {
	if g == nil || g.closed.Load() {
		return 0, ErrStopped
	}
	if len(entries) == 0 {
		return 0, nil
	}
	for _, e := range entries {
		if len(e.Req) > g.cfg.SlotBytes {
			return 0, ErrTooLarge
		}
	}
	r := g.acquire()
	if r == nil {
		return 0, ErrBusy
	}
	defer r.prodMu.Unlock()
	var errs []error
	base := r.tail.Load()
	first := r.reaped // next completion whose outcome we still owe the caller
	reap := func(end uint64) {
		for ; first < end; first++ {
			if ferr := r.finish(&r.slots[first&r.mask], nil); ferr != nil {
				errs = append(errs, ferr)
			}
		}
	}
	var stop error
	for _, e := range entries {
		s, idx, err := g.reserve(r)
		if err != nil {
			stop = err
			break
		}
		// A full ring makes reserve drain completed slots (backpressure);
		// collect their handler errors as reaped advances past them.
		reap(r.reaped)
		s.id = e.ID
		s.sp = sp
		s.reqN = len(r.seal(s, append(s.buf[:0], e.Req...), nonceReq))
		r.publish(idx)
	}
	if stop == nil {
		stop = r.awaitComp(r.tail.Load() - 1)
	}
	end := r.tail.Load()
	if stop != nil {
		// The consumer has left (awaitComp saw it exit), so the
		// completion count is final: the entries it covers ran, and the
		// rest never will.
		end = r.comp.Load()
	}
	reap(end)
	r.reaped = first
	if end <= base {
		return 0, stop
	}
	return int(end - base), errors.Join(errs...)
}

// reserve wraps Ring.reserve with the group's stall accounting.
func (g *Group) reserve(r *Ring) (*slot, uint64, error) {
	if r.tail.Load()-r.reaped >= uint64(len(r.slots)) {
		g.stalls.Add(1)
	}
	return r.reserve()
}

// Occupancy reports submissions currently in flight across all rings.
func (g *Group) Occupancy() int {
	if g == nil {
		return 0
	}
	total := 0
	for _, r := range g.rings {
		total += r.occupancy()
	}
	return total
}

// Stats aggregates the group's counters.
func (g *Group) Stats() Stats {
	var st Stats
	if g == nil {
		return st
	}
	st.Busy = g.busy.Load()
	st.Stalls = g.stalls.Load()
	for _, r := range g.rings {
		st.Submits += r.stats.submits.Load()
		st.Doorbells += r.stats.doorbells.Load()
		st.Wakeups += r.stats.wakeups.Load()
		st.Consumed += r.stats.consumed.Load()
		st.Overflows += r.stats.overflows.Load()
		st.SealedBytes += r.stats.sealed.Load()
		st.OverflowBytes += r.stats.overBytes.Load()
	}
	return st
}

// Close stops the consumer workers and rejects further submissions.
// On return no goroutine touches the slot memory: the consumers have
// left, and every producer lock is taken and kept. Safe to call more
// than once.
func (g *Group) Close() {
	if g == nil || !g.closed.CompareAndSwap(false, true) {
		return
	}
	for _, r := range g.rings {
		close(r.stop)
	}
	for _, r := range g.rings {
		<-r.exited
		r.prodMu.Lock()
	}
}
