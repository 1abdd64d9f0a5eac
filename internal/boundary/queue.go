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

	"montsalvat/internal/ring"
	"montsalvat/internal/telemetry"
)

// Entry is one queued cross-runtime call, encoded once at Enqueue: the
// EDL routine id and Req, the call's ring-slot form — a zero flags byte
// followed by its wire.Call record. A flush hands the entries to
// ring.Group.TryBatch as they are, or packs their records, flags byte
// dropped, into one batch frame. Only result-independent calls may be
// queued — the caller observes nothing of a queued call until a flush,
// so errors are deferred to the flushing caller.
type Entry = ring.BatchEntry

// Queue coalesces result-independent calls from one runtime into
// batched transitions. Enqueued entries are flushed — in order — by the
// run callback when the watermark is reached, a result-dependent call
// needs the queue empty first, or World.Flush is called explicitly.
type Queue struct {
	watermark int
	run       func(batch []Entry, waited time.Duration) error

	mu      sync.Mutex
	pending []Entry
	// oldest is the wall clock at which pending[0] was enqueued, stamped
	// only when telemetry is attached (zero otherwise) — it feeds the
	// queue-wait histogram and batch flush spans.
	oldest int64

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
// run receives the drained batch and how long its oldest entry waited
// (zero unless telemetry is attached).
func NewQueue(watermark int, run func(batch []Entry, waited time.Duration) error) *Queue {
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
	var now int64
	if q.hWait != nil {
		now = time.Now().UnixNano()
	}
	q.mu.Lock()
	if len(q.pending) == 0 {
		q.oldest = now
	}
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
	batch, oldest := q.pending, q.oldest
	q.pending = nil
	q.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	q.flushes.Add(1)
	q.batched.Add(uint64(len(batch)))
	q.hSize.Observe(int64(len(batch)))
	var waited time.Duration
	if oldest != 0 {
		waited = time.Duration(time.Now().UnixNano() - oldest)
		q.hWait.Observe(int64(waited))
	}
	return q.run(batch, waited)
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
