package world

import (
	"montsalvat/internal/boundary"
	"montsalvat/internal/ring"
)

// TableRefs reports the object-table reference count of hash in rt: the
// retentions frames and pins hold on it (0 when the table has no entry).
func (rt *Runtime) TableRefs(hash int64) int {
	s := rt.table.shard(hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[hash].refs
}

// RingHandler is the consumer callback a ring worker runs for each
// submission addressed to rt.
func (w *World) RingHandler(rt *Runtime) ring.Handler { return w.ringHandler(rt) }

// CloseRings stops the ring group rt's outgoing calls ride, as Kill
// does, leaving the rest of the generation live.
func (rt *Runtime) CloseRings() { rt.rings.Close() }

// BufPool is the pool the world's marshal buffers and batch frames are drawn
// from and recycled to.
func (w *World) BufPool() *boundary.BufPool { return w.bufs }

// Enqueue queues an encoded call on rt's batching queue, as a void proxy
// call or a GC sweep does; the next flush runs it.
func (rt *Runtime) Enqueue(e boundary.Entry) error { return rt.queue.Enqueue(e, nil) }
