package ring

import (
	"crypto/cipher"
	"errors"
	"sync/atomic"

	"montsalvat/internal/cycles"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/telemetry"
)

// Handler runs one call on the far side. req is the opened (decrypted)
// request payload and resp the zero-length response area — both alias
// the SAME slot memory, so the handler must fully decode req before
// writing resp. The returned out must be append-derived from resp (the
// in-place path); when the response does not fit the slot, the handler
// returns a separately allocated buffer with overflow=true, which
// crosses as a plain bounce buffer charged at MEE rate. sp is the
// caller's trace span (nil when unsampled).
type Handler func(id int, req, resp []byte, sp *telemetry.Span) (out []byte, overflow bool, err error)

// Config sizes one ring group (one crossing direction).
type Config struct {
	// Workers is the number of rings, so the number of calls the group
	// carries at once; on the trusted side each holds a TCS slot.
	Workers int
	// SlotBytes is the plaintext payload capacity of a ring's slot; the
	// backing buffer adds the 16-byte GCM tag.
	SlotBytes int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = simcfg.DefaultRingWorkers
	}
	if c.SlotBytes <= 0 {
		c.SlotBytes = simcfg.DefaultRingSlotBytes
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
	// Submits counts requests handed across.
	Submits uint64
	// Busy counts TryCall/TryBatch attempts that found every producer
	// occupied and fell back to the frame path.
	Busy uint64
	// Overflows counts responses too large for in-place sealing that
	// crossed as plain bounce buffers instead.
	Overflows uint64
	// SealedBytes is the total bytes through the in-place crypto pass
	// (both directions).
	SealedBytes uint64
	// OverflowBytes is the total bytes bounced via overflow buffers.
	OverflowBytes uint64
}

// Group is a set of rings serving one crossing direction. Callers
// submit through TryCall/TryBatch, which are strictly non-blocking on
// ring acquisition: when every ring's producer side is occupied the
// group reports ErrBusy and the caller falls back to the frame path,
// so nested call chains can never deadlock on ring capacity.
type Group struct {
	cfg     Config
	rings   []*Ring
	aead    cipher.AEAD
	clock   *cycles.Clock
	handler Handler

	next atomic.Uint32

	submits   atomic.Uint64
	busy      atomic.Uint64
	overflows atomic.Uint64
	sealed    atomic.Uint64 // bytes through the in-place crypto pass
	overBytes atomic.Uint64 // bytes bounced via overflow buffers

	closed atomic.Bool
}

// Slots is the slot memory of a group, one buffer per ring. A group
// owns it from NewGroup until its Close returns; then it may back the
// next group of the same Config.
type Slots [][]byte

// NewSlots allocates the slot memory of a group of cfg.
func NewSlots(cfg Config) Slots {
	cfg = cfg.withDefaults()
	mem := make(Slots, cfg.Workers)
	for i := range mem {
		mem[i] = make([]byte, 0, cfg.SlotBytes+gcmOverhead)
	}
	return mem
}

// NewGroup builds the rings over mem (from NewSlots(cfg)) and generates
// the group's AES-256-GCM session key. enter, when non-nil, establishes
// a ring's residency on the far side (an enclave TCS slot) and returns
// the matching leave; NewGroup enters once per ring, and Close leaves.
func NewGroup(cfg Config, mem Slots, clock *cycles.Clock, h Handler, enter func() (func(), error)) (*Group, error) {
	cfg = cfg.withDefaults()
	aead, err := newAEAD()
	if err != nil {
		return nil, err
	}
	g := &Group{cfg: cfg, aead: aead, clock: clock, handler: h}
	for i, buf := range mem {
		r := &Ring{idx: i, buf: buf}
		if enter != nil {
			if r.leave, err = enter(); err != nil {
				g.Close()
				return nil, err
			}
		}
		g.rings = append(g.rings, r)
	}
	return g, nil
}

// Workers reports the group's rings; 0 for a nil group.
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
		if r.mu.TryLock() {
			return r
		}
	}
	g.busy.Add(1)
	return nil
}

// TryCall runs one call through a ring: fill encodes the request
// directly into the slot (zero intermediate copies), the sealed slot
// crosses, and done — when non-nil — receives the opened response,
// which aliases slot memory and is valid only until TryCall returns.
// need is the exact encoded request size (from the wire size
// precomputes). Returns ErrTooLarge / ErrBusy / ErrStopped without
// running the handler when the call cannot ride the ring; any other
// error is from the remote handler or from done.
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
	defer r.mu.Unlock()
	plain, err := fill(r.buf[:0])
	if err != nil {
		return err
	}
	if g.closed.Load() {
		// Close has begun: no call starts on its rings any more.
		return ErrStopped
	}
	return g.run(r, id, plain, sp, done)
}

// TryBatch runs a set of void calls as individual ring entries, one
// after another on one ring. sp is the flush's trace span (nil when
// unsampled), handed to every entry's handler. It returns how many
// leading entries ran; the rest did not and must cross another way.
// Returns ErrTooLarge (before running anything) when any entry exceeds
// the slot, ErrBusy when no producer is free, ErrStopped when the group
// closed before any entry ran; otherwise the handler errors of the
// entries that ran, joined. A Close part-way through the batch stops it
// after the entry that is running.
func (g *Group) TryBatch(sp *telemetry.Span, entries []BatchEntry) (int, error) {
	if g == nil || g.closed.Load() {
		return 0, ErrStopped
	}
	for _, e := range entries {
		if len(e.Req) > g.cfg.SlotBytes {
			return 0, ErrTooLarge
		}
	}
	if len(entries) == 0 {
		return 0, nil
	}
	r := g.acquire()
	if r == nil {
		return 0, ErrBusy
	}
	defer r.mu.Unlock()
	var errs []error
	for i, e := range entries {
		if g.closed.Load() {
			if i == 0 {
				return 0, ErrStopped
			}
			return i, errors.Join(errs...)
		}
		if err := g.run(r, e.ID, append(r.buf[:0], e.Req...), sp, nil); err != nil {
			errs = append(errs, err)
		}
	}
	return len(entries), errors.Join(errs...)
}

// run carries one call whose request plain sits in r's slot; the
// caller holds r.mu. The request is sealed and handed across, opened in
// place and handled; the response is sealed in place (or, when it
// overflows the slot, bounced at MEE rate) and handed back, where done
// — when non-nil — receives it opened. Each hand-off pays
// RingSubmitCycles, whatever the handler returned. Errors cross out of
// band, as on the frame path: a failed call answers no payload.
func (g *Group) run(r *Ring, id int, plain []byte, sp *telemetry.Span, done func(resp []byte) error) error {
	r.seq++
	sealed := g.seal(r, id, plain, nonceReq)
	g.submits.Add(1)
	g.clock.Charge(simcfg.RingSubmitCycles)
	var out []byte
	overflow := false
	req, err := g.open(r, id, sealed, nonceReq)
	if err == nil {
		out, overflow, err = g.handler(id, req, r.buf[:0], sp)
	}
	if err == nil && !overflow {
		out = g.seal(r, id, out, nonceResp)
	}
	g.clock.Charge(simcfg.RingSubmitCycles)
	switch {
	case err != nil:
		return err
	case overflow:
		g.overflows.Add(1)
		g.overBytes.Add(uint64(len(out)))
		g.clock.ChargeBytes(len(out), simcfg.MEEBytesPerCycle)
	case done != nil:
		if out, err = g.open(r, id, out, nonceResp); err != nil {
			return err
		}
	}
	if done == nil {
		return nil
	}
	return done(out)
}

// Stats aggregates the group's counters.
func (g *Group) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	return Stats{
		Submits:       g.submits.Load(),
		Busy:          g.busy.Load(),
		Overflows:     g.overflows.Load(),
		SealedBytes:   g.sealed.Load(),
		OverflowBytes: g.overBytes.Load(),
	}
}

// Close rejects further calls, waits for the running ones and releases
// every ring's residency. On return no goroutine touches the slot
// memory: every producer lock is taken and kept. Safe to call more than
// once.
func (g *Group) Close() {
	if g == nil || !g.closed.CompareAndSwap(false, true) {
		return
	}
	for _, r := range g.rings {
		r.mu.Lock()
		if r.leave != nil {
			r.leave()
		}
	}
}
