package boundary

import (
	"sync"
	"sync/atomic"
)

// maxPooledCap bounds the capacity of buffers kept by a BufPool: a rare
// huge marshal must not pin its buffer in the pool forever.
const maxPooledCap = 1 << 20

// bufClasses are the pooled capacity classes, covering scalar-only call
// frames (256 B) through large blob payloads (1 MiB). A request is
// served from the smallest class that fits, so under mixed traffic the
// arenas stay dense instead of every pooled buffer drifting toward the
// largest allocation ever seen.
var bufClasses = [...]int{256, 4096, 65536, 1 << 20}

// getClass returns the index of the smallest class covering a requested
// capacity, or -1 when the request exceeds the largest class.
func getClass(capacity int) int {
	for i, class := range bufClasses {
		if capacity <= class {
			return i
		}
	}
	return -1
}

// putClass returns the index of the largest class a buffer's capacity
// covers — the class it can still serve Get requests for — or -1 for
// buffers below the smallest class. A buffer grown by append past its
// origin class is thus re-filed upward, never returned to a class it
// can no longer satisfy.
func putClass(capacity int) int {
	for i := len(bufClasses) - 1; i >= 0; i-- {
		if capacity >= bufClasses[i] {
			return i
		}
	}
	return -1
}

// BufPoolStats counts pool traffic for the miss-rate gauge.
type BufPoolStats struct {
	// Hits are Gets served by a pooled buffer of sufficient capacity.
	Hits uint64
	// Misses are Gets that allocated: an empty class, or a request
	// beyond the largest class.
	Misses uint64
}

// MissRate returns Misses/(Hits+Misses) in [0,1]. Before any Get the
// rate is defined as 0, never NaN — the gauge exported from an idle
// pool must read as "no misses", not poison downstream aggregation.
func (s BufPoolStats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// BufPool recycles marshal buffers on the proxy-call hot path. Returned
// buffers have zero length and at least the requested capacity, so a
// size-precomputed encode (wire.SizeValues + wire.AppendValues) never
// reallocates. Each size class is an independent sync.Pool, which is
// itself sharded per-P — concurrent workers draw from local arenas
// without contending on a shared free list.
type BufPool struct {
	classes [len(bufClasses)]sync.Pool
	// holders recycles the *[]byte boxes the class pools store (a pool
	// holds pointers; boxing the slice header anew on every Put would
	// cost the allocation the pool exists to save).
	holders sync.Pool

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewBufPool creates an empty pool.
func NewBufPool() *BufPool {
	p := &BufPool{}
	p.holders.New = func() any { return new([]byte) }
	return p
}

// Get returns a zero-length buffer with capacity >= capacity, drawn from
// the smallest size class that fits. Requests beyond the largest class
// allocate directly and are never pooled.
func (p *BufPool) Get(capacity int) []byte {
	i := getClass(capacity)
	if i < 0 {
		p.misses.Add(1)
		return make([]byte, 0, capacity)
	}
	// Put files a buffer under the largest class its capacity covers,
	// so whatever class i holds is big enough.
	h, _ := p.classes[i].Get().(*[]byte)
	if h == nil {
		p.misses.Add(1)
		return make([]byte, 0, bufClasses[i])
	}
	buf := *h
	*h = nil
	p.holders.Put(h)
	p.hits.Add(1)
	return buf[:0]
}

// Put recycles a buffer into the largest class its capacity covers —
// re-classified by CURRENT capacity, so a buffer that grew under append
// since it was borrowed lands in the class it can actually serve. The
// caller must not touch buf afterwards; any slice aliasing it (e.g. a
// decoded view) must have been copied first. Nil, undersized, and
// oversized buffers are dropped.
func (p *BufPool) Put(buf []byte) {
	if buf == nil || cap(buf) > maxPooledCap {
		return
	}
	if i := putClass(cap(buf)); i >= 0 {
		h := p.holders.Get().(*[]byte)
		*h = buf
		p.classes[i].Put(h)
	}
	// Below the smallest class: not worth keeping.
}

// Stats snapshots the pool's hit/miss counters.
func (p *BufPool) Stats() BufPoolStats {
	return BufPoolStats{Hits: p.hits.Load(), Misses: p.misses.Load()}
}
