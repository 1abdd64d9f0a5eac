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

// shardMinSlots is the size of a shard's slot array once it holds an
// entry.
const shardMinSlots = 16

// noSlots is the slot array of a shard that has never held an entry:
// one free slot, which nothing writes (insert grows the array first), so
// building a runtime allocates no slots.
var noSlots = make([]objEntry, 1)

// objEntry is a reference-counted strong handle in the object table;
// frames retain and release entries. Entries live in the shard's slot
// array by value: an activation that is the only holder of an object
// adopts and drops its entry without allocating. An entry is removed
// when its count reaches zero, so refs == 0 marks a free slot.
type objEntry struct {
	hash   int64
	handle heap.Handle
	refs   int
}

// tableShard is one stripe of the object table: an open-addressing array
// keyed by identity hash, probed linearly from the hash's home slot. A
// delete shifts the entries of its probe run back, so the array holds no
// tombstones and a lookup stops at the first free slot. Within a shard
// the hashes differ in their bits above the stripe, and sequential
// hashes land in sequential slots.
type tableShard struct {
	mu    lockrank.Mutex
	slots []objEntry // a power of two long
	n     int        // entries in use
}

// home is the slot a probe for hash starts from.
func (s *tableShard) home(hash int64) int {
	return int(uint64(hash)/tableShards) & (len(s.slots) - 1)
}

// find returns the slot holding hash, or -1.
func (s *tableShard) find(hash int64) int {
	mask := len(s.slots) - 1
	for i := s.home(hash); s.slots[i].refs != 0; i = (i + 1) & mask {
		if s.slots[i].hash == hash {
			return i
		}
	}
	return -1
}

// insert stores e, whose hash the shard does not hold, growing the
// array to keep it at most three quarters full.
func (s *tableShard) insert(e objEntry) {
	if 4*(s.n+1) > 3*len(s.slots) {
		old := s.slots
		s.slots = make([]objEntry, max(2*len(old), shardMinSlots))
		for _, o := range old {
			if o.refs != 0 {
				s.place(o)
			}
		}
	}
	s.place(e)
	s.n++
}

// place puts e in the first free slot of its probe run.
func (s *tableShard) place(e objEntry) {
	mask := len(s.slots) - 1
	i := s.home(e.hash)
	for s.slots[i].refs != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = e
}

// remove frees slot i and moves back every later entry of its probe run
// that a lookup could otherwise no longer reach.
func (s *tableShard) remove(i int) {
	mask := len(s.slots) - 1
	for j := (i + 1) & mask; s.slots[j].refs != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i when its home slot does
		// not lie cyclically within (i, j].
		if h := s.home(s.slots[j].hash); (j-h)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = objEntry{}
	s.n--
}

// objTable is a runtime's sharded object table: identity hash →
// refcounted strong handle, striped over per-shard mutexes so
// concurrently executing activations touching different objects do not
// serialise. Table operations are pure array-and-refcount work — no
// shard critical section ever touches the heap. Operations that make an
// entry's strong handle redundant (racing adopts, last-reference
// releases) hand the handle back to the caller, who drops it under the
// runtime's heap lock; a heap handle carries its slot's generation, so a
// stale drop fails cleanly rather than aliasing the handle that reuses
// the slot.
type objTable struct {
	shards [tableShards]tableShard
	// waits counts shard-lock acquisitions that found the lock held —
	// the table's contention telemetry.
	waits atomic.Uint64
}

func newObjTable() *objTable {
	t := &objTable{}
	for i := range t.shards {
		t.shards[i].slots = noSlots
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
	i := s.find(hash)
	if i < 0 {
		return 0, false
	}
	s.slots[i].refs++
	return s.slots[i].handle, true
}

// adopt installs (hash → handle) with one reference. When another
// goroutine installed an entry first, the existing entry is retained
// instead and the now-redundant handle is returned as dup for the caller
// to drop outside all table locks.
func (t *objTable) adopt(hash int64, handle heap.Handle) (kept, dup heap.Handle) {
	s := t.shard(hash)
	t.lock(s)
	defer s.mu.Unlock()
	if i := s.find(hash); i >= 0 {
		e := &s.slots[i]
		e.refs++
		if handle != 0 && handle != e.handle {
			return e.handle, handle
		}
		return e.handle, 0
	}
	s.insert(objEntry{hash: hash, handle: handle, refs: 1})
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
	i := s.find(hash)
	if i < 0 {
		return 0
	}
	if s.slots[i].refs--; s.slots[i].refs > 0 {
		return 0
	}
	drop = s.slots[i].handle
	s.remove(i)
	return drop
}

// len folds the live entry count over the shards.
func (t *objTable) len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
	}
	return n
}
