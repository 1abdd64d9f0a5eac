package world

import (
	"sync/atomic"

	"montsalvat/internal/heap"
	"montsalvat/internal/lockrank"
)

// tableShards is the stripe count of the runtime object table. Identity
// hashes are issued sequentially by the world, so hash & (tableShards-1)
// distributes entries uniformly.
const tableShards = 16

// objEntry is a reference-counted strong handle in the object table;
// frames retain and release entries. Entries live in the shard maps by
// value: an activation that is the only holder of an object adopts and
// drops its entry without allocating.
type objEntry struct {
	handle heap.Handle
	refs   int
}

// tableShard is one stripe of the object table.
type tableShard struct {
	mu      lockrank.Mutex
	entries map[int64]objEntry
}

// objTable is a runtime's sharded object table: identity hash →
// refcounted strong handle, striped over per-shard mutexes so
// concurrently executing activations touching different objects do not
// serialise. Table operations are pure map-and-refcount work — no shard
// critical section ever touches the heap. Operations that make an entry's
// strong handle redundant (racing adopts, last-reference releases) hand
// the handle back to the caller, who drops it under the runtime's heap
// lock; a heap handle carries its slot's generation, so a stale drop
// fails cleanly rather than aliasing the handle that reuses the slot.
type objTable struct {
	shards [tableShards]tableShard
	// waits counts shard-lock acquisitions that found the lock held —
	// the table's contention telemetry.
	waits atomic.Uint64
}

func newObjTable() *objTable {
	t := &objTable{}
	for i := range t.shards {
		t.shards[i].entries = make(map[int64]objEntry)
		t.shards[i].mu.SetRank(lockrank.RankWorldTable, "world.tableShard.mu")
	}
	return t
}

func (t *objTable) shard(hash int64) *tableShard {
	return &t.shards[uint64(hash)&(tableShards-1)]
}

// lock acquires a shard mutex, counting contended acquisitions.
func (t *objTable) lock(s *tableShard) {
	if !s.mu.TryLock() {
		t.waits.Add(1)
		s.mu.Lock()
	}
}

// retain bumps the reference count of an existing entry, reporting its
// handle. A miss leaves the table untouched.
func (t *objTable) retain(hash int64) (heap.Handle, bool) {
	s := t.shard(hash)
	t.lock(s)
	defer s.mu.Unlock()
	e, ok := s.entries[hash]
	if !ok {
		return 0, false
	}
	e.refs++
	s.entries[hash] = e
	return e.handle, true
}

// adopt installs (hash → handle) with one reference. When another
// goroutine installed an entry first, the existing entry is retained
// instead and the now-redundant handle is returned as dup for the caller
// to drop outside all table locks.
func (t *objTable) adopt(hash int64, handle heap.Handle) (kept, dup heap.Handle) {
	s := t.shard(hash)
	t.lock(s)
	defer s.mu.Unlock()
	if e, ok := s.entries[hash]; ok {
		e.refs++
		s.entries[hash] = e
		if handle != 0 && handle != e.handle {
			return e.handle, handle
		}
		return e.handle, 0
	}
	s.entries[hash] = objEntry{handle: handle, refs: 1}
	return handle, 0
}

// release drops one reference. An entry reaching zero references is
// removed eagerly — the table never accumulates dead entries — and its
// strong handle is returned for the caller to drop. Unknown hashes are
// ignored (the entry was already fully released).
func (t *objTable) release(hash int64) (drop heap.Handle) {
	s := t.shard(hash)
	t.lock(s)
	defer s.mu.Unlock()
	e, ok := s.entries[hash]
	if !ok {
		return 0
	}
	e.refs--
	if e.refs > 0 {
		s.entries[hash] = e
		return 0
	}
	delete(s.entries, hash)
	return e.handle
}

// len folds the live entry count over the shards.
func (t *objTable) len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}
