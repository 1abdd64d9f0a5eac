package world

import (
	"errors"
	"math"

	"montsalvat/internal/boundary"
	"montsalvat/internal/ring"
)

// Pins reports how many times hash is pinned in rt.
func (rt *Runtime) Pins(hash int64) int {
	rt.pinMu.Lock()
	defer rt.pinMu.Unlock()
	return rt.pins[hash].n
}

// RingHandler is the far-side callback a ring call runs for each
// submission addressed to rt.
func (w *World) RingHandler(rt *Runtime) ring.Handler { return w.ringHandler(rt) }

// CloseRings stops the ring group rt's outgoing calls ride, as Kill
// does, leaving the rest of the generation live.
func (rt *Runtime) CloseRings() { rt.rings.Close() }

// RingsClosed reports whether CloseRings has begun: the group refuses a
// submission too large for any slot as stopped, not as too large.
func (rt *Runtime) RingsClosed() bool {
	return errors.Is(rt.rings.TryCall(0, math.MaxInt, nil, nil, nil), ring.ErrStopped)
}

// BufPool is the pool the world's marshal buffers and batch frames are drawn
// from and recycled to.
func (w *World) BufPool() *boundary.BufPool { return w.bufs }

// Enqueue queues an encoded call on rt's batching queue, as a void proxy
// call or a GC sweep does; the next flush runs it.
func (rt *Runtime) Enqueue(e boundary.Entry) error { return rt.queue.Enqueue(e, nil) }

// IDExec is the enclave entry of trusted Exec and of a flush entered
// from outside.
const IDExec = idExec
