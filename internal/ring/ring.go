// Package ring implements the zero-copy data plane of the boundary:
// per-worker shared-memory single-producer/single-consumer rings that
// replace the marshal-copy path for proxy calls.
//
// Each Ring is a pair of fixed-slot submission/completion queues in the
// io_uring shape: the producer encodes a request directly into a slot
// (no intermediate buffer), seals it in place with AES-256-GCM —
// encrypt-on-write into untrusted memory — and publishes it by bumping
// the atomic tail index. A resident consumer worker polls the tail,
// opens the request in place, runs the handler (which encodes its
// response into the same slot), seals the response and publishes the
// completion count. Per-byte cost is therefore one streaming crypto
// pass per direction instead of an MEE-taxed buffer copy per crossing.
//
// Trust-boundary rules for slot memory: the slots live in UNTRUSTED
// shared memory. Neither side ever stages plaintext in a separate
// enclave buffer — sealing happens as the bytes are produced, opening
// as they are consumed — and authenticity comes from the GCM tag plus
// a (ring, sequence, direction) nonce and the routine id as additional
// authenticated data, so a tampering host yields an authentication
// error, never silently corrupt arguments.
//
// Doorbell protocol: the consumer spins on the tail for a bounded
// number of polls, then publishes "asleep", re-checks the tail (closing
// the race where a submission lands between the last poll and the
// wait) and blocks on the doorbell channel. The producer rings the
// doorbell — and pays the futex-wake cost — only when it observes the
// consumer asleep; while the consumer polls, publishing costs only a
// cross-core cache-line hand-off. The producer's completion wait is the
// symmetric protocol. This folds the adaptive-switchless sleep logic
// into ring polling. Adaptive batching falls out of the shape: every
// submission published while the consumer was busy or waking is
// consumed in the same wakeup.
package ring

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"montsalvat/internal/cycles"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/telemetry"
)

// Errors returned by the ring data plane. ErrBusy, ErrTooLarge and
// ErrStopped mean "nothing ran" — callers fall back to the frame path.
var (
	// ErrBusy is returned by TryCall/TryBatch when every ring's
	// producer side is occupied (a slot-full stall).
	ErrBusy = errors.New("ring: all ring producers busy")
	// ErrTooLarge is returned when an encoded payload exceeds the slot
	// capacity; the caller falls back to the frame path.
	ErrTooLarge = errors.New("ring: payload exceeds slot capacity")
	// ErrStopped is returned for submissions after Close.
	ErrStopped = errors.New("ring: stopped")
)

// Handler consumes one submission on the consumer side. req is the
// opened (decrypted) request payload and resp the zero-length response
// area — both alias the SAME slot memory, so the handler must fully
// decode req before writing resp. The returned out must be
// append-derived from resp (the in-place path); when the response does
// not fit the slot, the handler returns a separately allocated buffer
// with overflow=true, which crosses as a plain bounce buffer charged at
// MEE rate. sp is the producer's trace span (nil when unsampled).
type Handler func(id int, req, resp []byte, sp *telemetry.Span) (out []byte, overflow bool, err error)

// DefaultPollSpins is the consumer/producer poll budget before the
// sleep protocol engages, matching the spin-then-sleep shape of SDK
// switchless workers.
const DefaultPollSpins = 256

// gcmNonceSize and gcmOverhead are fixed by the AES-GCM construction.
const (
	gcmNonceSize = 12
	gcmOverhead  = 16
)

// nonce direction markers: request and response streams of one
// sequence number must never share a nonce.
const (
	nonceReq  = 0
	nonceResp = 1
)

// slot is one fixed-capacity submission/completion cell. All fields
// are owned by exactly one side at a time (producer until publish,
// consumer until completion), so none need atomics; the tail/comp
// indices publish ownership hand-offs.
type slot struct {
	id    int
	seq   uint64
	reqN  int    // sealed request length in buf
	respN int    // sealed response length in buf
	over  []byte // overflow response (plain bounce buffer, rare)
	err   error
	sp    *telemetry.Span
	buf   []byte // fixed capacity: Config.SlotBytes + gcmOverhead
}

// Ring is one SPSC submission/completion queue pair with a resident
// consumer worker. Producers serialise on prodMu (holding it for the
// duration of a call preserves the single-producer discipline).
type Ring struct {
	idx   int
	slots []slot
	mask  uint64

	aead  cipher.AEAD
	clock *cycles.Clock

	// tail counts published submissions (producer-owned store); comp
	// counts published completions (consumer-owned store). head is
	// consumer-local; reaped is producer-local under prodMu. Free slots
	// = len(slots) - (tail - reaped).
	tail   atomic.Uint64
	comp   atomic.Uint64
	reaped uint64
	seq    uint64

	prodMu sync.Mutex

	csleep atomic.Bool
	psleep atomic.Bool
	bell   chan struct{} // consumer doorbell
	pbell  chan struct{} // producer completion doorbell
	stop   chan struct{}
	exited chan struct{} // closed when the consumer has left serve

	pollSpins int
	handler   Handler

	stats ringStats
}

// ringStats are the per-ring activity counters, absorbed into
// Group.Stats.
type ringStats struct {
	submits   atomic.Uint64
	doorbells atomic.Uint64
	wakeups   atomic.Uint64
	consumed  atomic.Uint64
	overflows atomic.Uint64
	sealed    atomic.Uint64 // bytes through the in-place crypto pass
	overBytes atomic.Uint64 // bytes bounced via overflow buffers
}

func newRing(idx int, slots []slot, pollSpins int, aead cipher.AEAD, clock *cycles.Clock, h Handler) *Ring {
	return &Ring{
		idx:       idx,
		slots:     slots,
		mask:      uint64(len(slots) - 1),
		aead:      aead,
		clock:     clock,
		bell:      make(chan struct{}, 1),
		pbell:     make(chan struct{}, 1),
		stop:      make(chan struct{}),
		exited:    make(chan struct{}),
		pollSpins: pollSpins,
		handler:   h,
	}
}

// nonce derives the unique 96-bit nonce of one sealed payload: ring
// index, direction marker and submission sequence. The group key is
// never reused across rings with the same (dir, seq) pair.
func (r *Ring) nonce(seq uint64, dir byte) [gcmNonceSize]byte {
	var n [gcmNonceSize]byte
	binary.LittleEndian.PutUint16(n[0:2], uint16(r.idx))
	n[2] = dir
	binary.LittleEndian.PutUint64(n[4:12], seq)
	return n
}

// aad binds the routine id into the authenticated data.
func callAAD(id int) [8]byte {
	var a [8]byte
	binary.LittleEndian.PutUint64(a[:], uint64(id))
	return a
}

// seal encrypts plain in place inside the slot buffer (dst reuses
// plain's storage) and charges the streaming crypto pass — the one
// point where per-byte cost accrues on this path.
func (r *Ring) seal(s *slot, plain []byte, dir byte) []byte {
	n := r.nonce(s.seq, dir)
	a := callAAD(s.id)
	sealed := r.aead.Seal(plain[:0], n[:], plain, a[:])
	r.stats.sealed.Add(uint64(len(sealed)))
	if r.clock != nil {
		r.clock.ChargeBytes(len(sealed), simcfg.RingCryptoBytesPerCycle)
	}
	return sealed
}

// open decrypts a sealed slot payload in place. The open is pipelined
// with the streaming read on real hardware, so no second per-byte
// charge accrues here.
func (r *Ring) open(s *slot, sealed []byte, dir byte) ([]byte, error) {
	n := r.nonce(s.seq, dir)
	a := callAAD(s.id)
	plain, err := r.aead.Open(sealed[:0], n[:], sealed, a[:])
	if err != nil {
		return nil, fmt.Errorf("ring: slot authentication failed: %w", err)
	}
	return plain, nil
}

// reserve returns the next free slot, draining completions when the
// ring is full (producer stall then drain). Caller holds prodMu.
func (r *Ring) reserve() (*slot, uint64, error) {
	idx := r.tail.Load()
	for idx-r.reaped >= uint64(len(r.slots)) {
		// Full: the oldest outstanding submission must complete before
		// its slot can be reused.
		if err := r.awaitComp(r.reaped); err != nil {
			return nil, 0, err
		}
		r.reaped++
	}
	s := &r.slots[idx&r.mask]
	r.seq++
	s.seq = r.seq
	s.err = nil
	s.over = nil
	s.respN = 0
	return s, idx, nil
}

// publish makes the filled slot visible to the consumer and rings the
// doorbell only when the consumer is asleep, charging the matching
// hand-off cost. Caller holds prodMu.
func (r *Ring) publish(idx uint64) {
	r.tail.Store(idx + 1)
	r.stats.submits.Add(1)
	if r.csleep.Load() {
		select {
		case r.bell <- struct{}{}:
		default:
		}
		r.stats.doorbells.Add(1)
		if r.clock != nil {
			r.clock.Charge(simcfg.RingDoorbellCycles)
		}
		return
	}
	if r.clock != nil {
		r.clock.Charge(simcfg.RingSubmitCycles)
	}
}

// awaitComp blocks until the completion count exceeds idx, using the
// symmetric spin-then-sleep protocol. Caller holds prodMu.
func (r *Ring) awaitComp(idx uint64) error {
	for spun := 0; ; spun++ {
		if r.comp.Load() > idx {
			return nil
		}
		if spun < r.pollSpins {
			runtime.Gosched()
			continue
		}
		r.psleep.Store(true)
		if r.comp.Load() > idx {
			r.psleep.Store(false)
			return nil
		}
		select {
		case <-r.pbell:
			r.psleep.Store(false)
			spun = 0
		case <-r.stop:
			r.psleep.Store(false)
			// Once the consumer has left, "not completed" is "never ran".
			<-r.exited
			if r.comp.Load() > idx {
				return nil
			}
			return ErrStopped
		}
	}
}

// serve is the resident consumer loop: poll the submission tail, drain
// every published entry per wakeup, then spin-then-sleep.
func (r *Ring) serve(enter func() (func(), error), onBatch func(int)) {
	defer close(r.exited)
	if enter != nil {
		leave, err := enter()
		if err != nil {
			// Residency denied (e.g. enclave tearing down): the ring
			// stays submittable but nothing consumes; producers time out
			// via stop. In practice Close follows immediately.
			return
		}
		defer leave()
	}
	head := uint64(0)
	for {
		t := r.tail.Load()
		if t == head {
			if !r.idle(head) {
				return
			}
			continue
		}
		r.stats.wakeups.Add(1)
		if onBatch != nil {
			onBatch(int(t - head))
		}
		for ; head < t; head++ {
			select {
			case <-r.stop:
				return
			default:
			}
			r.consume(&r.slots[head&r.mask], head)
		}
	}
}

// idle runs the consumer's spin-then-sleep protocol; it returns false
// when the ring is stopping. The asleep flag is published BEFORE the
// final tail re-check, so a producer that publishes between the check
// and the wait necessarily observes it and rings the doorbell.
func (r *Ring) idle(head uint64) bool {
	for spun := 0; ; spun++ {
		if r.tail.Load() != head {
			return true
		}
		select {
		case <-r.stop:
			return false
		default:
		}
		if spun < r.pollSpins {
			runtime.Gosched()
			continue
		}
		r.csleep.Store(true)
		if r.tail.Load() != head {
			r.csleep.Store(false)
			return true
		}
		select {
		case <-r.bell:
			r.csleep.Store(false)
			return true
		case <-r.stop:
			r.csleep.Store(false)
			return false
		}
	}
}

// consume opens one submission in place, runs the handler, seals the
// in-place response (or records the overflow bounce buffer) and
// publishes the completion.
func (r *Ring) consume(s *slot, idx uint64) {
	req, err := r.open(s, s.buf[:s.reqN], nonceReq)
	if err != nil {
		s.err = err
	} else {
		out, overflow, herr := r.handler(s.id, req, s.buf[:0], s.sp)
		s.err = herr
		switch {
		case herr != nil:
			// Errors cross out of band, as on the frame path: no
			// response payload.
		case overflow:
			s.over = out
			r.stats.overflows.Add(1)
			r.stats.overBytes.Add(uint64(len(out)))
		default:
			sealed := r.seal(s, out, nonceResp)
			s.respN = len(sealed)
		}
	}
	r.stats.consumed.Add(1)
	r.comp.Store(idx + 1)
	if r.psleep.Load() {
		select {
		case r.pbell <- struct{}{}:
		default:
		}
		if r.clock != nil {
			r.clock.Charge(simcfg.RingDoorbellCycles)
		}
	} else if r.clock != nil {
		r.clock.Charge(simcfg.RingSubmitCycles)
	}
}

// finish resolves one completed submission on the producer side:
// surface the handler error, open the in-place response, or charge the
// overflow bounce buffer at MEE rate (it crossed as a plain copy).
// Caller holds prodMu and has awaited the completion.
func (r *Ring) finish(s *slot, done func(resp []byte) error) error {
	if s.err != nil {
		return s.err
	}
	if s.over != nil {
		if r.clock != nil {
			r.clock.ChargeBytes(len(s.over), simcfg.MEEBytesPerCycle)
		}
		if done == nil {
			return nil
		}
		return done(s.over)
	}
	if done == nil {
		return nil
	}
	resp, err := r.open(s, s.buf[:s.respN], nonceResp)
	if err != nil {
		return err
	}
	return done(resp)
}

// occupancy reports the submissions currently in flight.
func (r *Ring) occupancy() int {
	return int(r.tail.Load() - r.comp.Load())
}

// newAEAD builds the AES-256-GCM sealer shared by a ring group, under a
// fresh 32-byte session key.
func newAEAD() (cipher.AEAD, error) {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}
