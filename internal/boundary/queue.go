// Package boundary holds the two algorithms the world layer's boundary
// crossings share: the Queue that coalesces result-independent calls
// into one batched transition, and the size-classed BufPool that
// recycles marshal buffers. Each hides a policy worth its own tests (the
// flush watermark and ordering; class choice by current capacity).
//
// The crossing itself is not here. The world runtime makes its full
// transitions with sgx.Enclave.Ecall/Ocall and its ring submissions with
// ring.Group.TryCall/TryBatch directly; see internal/world (runtime.go,
// cross and rode) and DESIGN.md §6.
package boundary

import (
	"sync"
	"sync/atomic"
	"time"

	"montsalvat/internal/telemetry"
)

// Entry is one queued cross-runtime call: the routing key (EDL routine
// id) plus the already-marshalled invocation the flusher packs into a
// batched frame. Only result-independent calls may be queued — the
// caller observes nothing of a queued call until a flush, so errors are
// deferred to the flushing caller.
type Entry struct {
	ID     int
	Class  string
	Method string
	Hash   int64
	Args   []byte

	// EnqueuedNS is the wall clock at Enqueue, stamped only when
	// telemetry is attached (zero otherwise) — it feeds the queue-wait
	// histogram and batch flush spans.
	EnqueuedNS int64
}

// Queue coalesces result-independent calls from one runtime into
// batched transitions. Enqueued entries are flushed — in order — by the
// run callback when the watermark is reached, a result-dependent call
// needs the queue empty first, or World.Flush is called explicitly.
type Queue struct {
	watermark int
	run       func([]Entry) error

	mu      sync.Mutex
	pending []Entry

	// flushMu serializes flushes so concurrent flushers cannot reorder
	// two drained batches relative to each other. It is taken before
	// draining pending (never while holding mu).
	flushMu sync.Mutex

	flushes atomic.Uint64
	batched atomic.Uint64

	hWait *telemetry.Histogram // oldest-entry wait per flush
	hSize *telemetry.Histogram // calls per flushed batch
}

// NewQueue builds a queue flushing through run at the given watermark.
func NewQueue(watermark int, run func([]Entry) error) *Queue {
	return &Queue{watermark: watermark, run: run}
}

// SetTelemetry attaches the queue-wait and batch-size histograms.
// Enqueue stamps entries with a wall clock only once these are set.
func (q *Queue) SetTelemetry(wait, size *telemetry.Histogram) {
	q.hWait = wait
	q.hSize = size
}

// Enqueue appends a call, flushing first the moment the queue reaches
// the watermark. The returned error is a flush error; the enqueued call
// itself reports nothing until a later flush.
func (q *Queue) Enqueue(e Entry) error {
	if q.hWait != nil {
		e.EnqueuedNS = time.Now().UnixNano()
	}
	q.mu.Lock()
	q.pending = append(q.pending, e)
	full := len(q.pending) >= q.watermark
	q.mu.Unlock()
	if full {
		return q.Flush()
	}
	return nil
}

// Flush drains the queue and runs the drained batch in one transition.
// A no-op on an empty queue. Errors from individual batched calls are
// joined by the run callback.
func (q *Queue) Flush() error {
	q.flushMu.Lock()
	defer q.flushMu.Unlock()
	q.mu.Lock()
	batch := q.pending
	q.pending = nil
	q.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	q.flushes.Add(1)
	q.batched.Add(uint64(len(batch)))
	q.hSize.Observe(int64(len(batch)))
	if q.hWait != nil && batch[0].EnqueuedNS != 0 {
		q.hWait.Observe(time.Now().UnixNano() - batch[0].EnqueuedNS)
	}
	return q.run(batch)
}

// Len returns the number of calls waiting to be flushed.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// QueueStats counts batching activity.
type QueueStats struct {
	// Flushes is the number of batched transitions performed.
	Flushes uint64
	// BatchedCalls is the total number of calls they carried.
	BatchedCalls uint64
}

// Stats returns a snapshot of the batching counters.
func (q *Queue) Stats() QueueStats {
	return QueueStats{Flushes: q.flushes.Load(), BatchedCalls: q.batched.Load()}
}
