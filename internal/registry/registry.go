// Package registry implements the mirror–proxy registry that Montsalvat's
// GC synchronisation is built on (§5.2, §5.5).
//
// Each runtime owns one Registry mapping proxy identity hashes to strong
// handles of the local mirror objects ("code to add the mirror object
// strong reference and associated proxy hash to a global registry, which
// we call the mirror-proxy registry"). Entries are reference counted by
// the number of live proxy instances in the opposite runtime, so that a
// hash exported more than once is only released when the last proxy dies.
//
// The registry is lock-striped: entries are spread over numShards shards
// keyed by identity hash, each with its own mutex, so concurrently
// crossing goroutines touching different objects do not serialise on one
// lock. Aggregate views (Size, Hashes) fold over the shards at read
// time. Strong-handle drops triggered inside a shard critical section
// (duplicate exports, last-instance releases) are deferred until after
// the shard unlocks and routed through a releaser hook, so a caller may
// guard heap access with its own lock without ever nesting it inside a
// shard lock.
//
// The other half of §5.5 — a weak reference and the hash of each proxy
// living locally ("When a proxy object is created, Montsalvat stores a
// weak reference and the hash of the former in a global list") — is the
// runtime heap's weak table (heap.NewWeak, heap.SweepWeaks): the GC
// helper takes the hashes of the proxies a collection found dead from
// it and releases their mirrors here, in the opposite registry.
package registry

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"montsalvat/internal/heap"
)

// ErrUnknownHash is returned by Release for a hash the registry holds no
// mirror for: one it was never given, or one whose mirror a release
// already dropped. Release hashes arrive from the opposite runtime — for
// the enclave, from the host — so a forged or replayed one must fail
// here, typed, and change nothing.
var ErrUnknownHash = errors.New("registry: release of unknown hash")

// numShards is the stripe count of a Registry. Identity hashes are
// assigned sequentially by the world, so hash & (numShards-1)
// distributes entries uniformly.
const numShards = 16

// regShard is one stripe: a mutex plus the entries whose hash maps here.
type regShard struct {
	mu      sync.Mutex
	entries map[int64]*entry
}

// Registry is one runtime's mirror–proxy registry. It is safe for
// concurrent use (GC-helper sweeps and any number of mutators).
type Registry struct {
	shards [numShards]regShard

	// release drops a strong handle once an entry no longer needs it.
	// It always runs outside every shard lock. Defaults to a direct
	// heap release; the world overrides it to take the owning runtime's
	// heap lock first.
	release func(heap.Handle) error

	// waits counts shard-lock acquisitions that found the lock held —
	// the registry's contention telemetry.
	waits atomic.Uint64

	// observe, when set, receives the wall-clock nanoseconds each
	// mutating critical section held its shard lock. Set it before
	// concurrent use.
	observe func(holdNS int64)
}

type entry struct {
	handle heap.Handle
	count  int
}

// New creates a registry whose strong references live on h.
func New(h *heap.Heap) *Registry {
	r := &Registry{release: h.Release}
	for i := range r.shards {
		r.shards[i].entries = make(map[int64]*entry)
	}
	return r
}

// SetReleaser replaces the hook that drops strong handles. The hook is
// always invoked outside every shard lock, so it may take the caller's
// heap lock without ordering against the registry. Call before
// concurrent use.
func (r *Registry) SetReleaser(release func(heap.Handle) error) {
	r.release = release
}

// SetHoldObserver installs a callback receiving the held-nanoseconds of
// every mutating shard critical section (lock hold-time telemetry).
// Call before concurrent use; a nil observer disables measurement.
func (r *Registry) SetHoldObserver(observe func(holdNS int64)) {
	r.observe = observe
}

// Waits reports how many shard-lock acquisitions contended.
func (r *Registry) Waits() uint64 { return r.waits.Load() }

func (r *Registry) shard(hash int64) *regShard {
	return &r.shards[uint64(hash)&(numShards-1)]
}

// lock acquires a shard mutex, counting contended acquisitions.
func (r *Registry) lock(s *regShard) {
	if !s.mu.TryLock() {
		r.waits.Add(1)
		s.mu.Lock()
	}
}

func (r *Registry) holdStart() time.Time {
	if r.observe == nil {
		return time.Time{}
	}
	return time.Now()
}

func (r *Registry) holdEnd(t0 time.Time) {
	if r.observe != nil {
		r.observe(time.Since(t0).Nanoseconds())
	}
}

// Export records that a proxy instance for hash now exists in the
// opposite runtime, keeping the local mirror object (already referenced
// by handle) strongly reachable. Re-exports of a live hash increment the
// reference count and release the redundant handle.
func (r *Registry) Export(hash int64, handle heap.Handle) error {
	s := r.shard(hash)
	r.lock(s)
	t0 := r.holdStart()
	var drop heap.Handle
	if e, ok := s.entries[hash]; ok {
		e.count++
		// The existing strong handle already pins the mirror; the
		// redundant one is dropped below, outside the shard lock.
		drop = handle
	} else {
		s.entries[hash] = &entry{handle: handle, count: 1}
	}
	r.holdEnd(t0)
	s.mu.Unlock()
	if drop != 0 {
		if err := r.release(drop); err != nil {
			return fmt.Errorf("registry: release duplicate handle: %w", err)
		}
	}
	return nil
}

// Resolve returns the strong handle of the mirror for hash.
func (r *Registry) Resolve(hash int64) (heap.Handle, bool) {
	s := r.shard(hash)
	r.lock(s)
	e, ok := s.entries[hash]
	var h heap.Handle
	if ok {
		h = e.handle
	}
	s.mu.Unlock()
	return h, ok
}

// Release records the death of one proxy instance for hash. When the
// last instance dies the strong handle is dropped, making the mirror
// "eligible for GC if it is not strongly referenced anywhere else"
// (§5.5). It reports whether the entry was fully removed.
func (r *Registry) Release(hash int64) (removed bool, err error) {
	s := r.shard(hash)
	r.lock(s)
	t0 := r.holdStart()
	e, ok := s.entries[hash]
	var drop heap.Handle
	if ok {
		e.count--
		if e.count <= 0 {
			delete(s.entries, hash)
			drop = e.handle
			removed = true
		}
	}
	r.holdEnd(t0)
	s.mu.Unlock()
	if !ok {
		return false, fmt.Errorf("%w %d", ErrUnknownHash, hash)
	}
	if drop != 0 {
		if err := r.release(drop); err != nil {
			return true, fmt.Errorf("registry: drop mirror handle: %w", err)
		}
	}
	return removed, nil
}

// Size returns the number of registered mirrors (Fig. 5b's
// mirror-objs-in series), folded over the shards.
func (r *Registry) Size() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}
