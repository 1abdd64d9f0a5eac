package registry

import (
	"sync"
)

// Namespace is a session-scoped handle table used by the enclave gateway
// (internal/serve): each network session owns one Namespace mapping
// opaque session-local handles to the (class, identity hash) pairs of the
// world objects the session created. Handles are allocated per session,
// so one client can neither guess nor collide with another client's
// objects — a request carrying a handle its own namespace never issued is
// rejected before it reaches the world. World identity hashes never
// leave the gateway.
//
// A Namespace is safe for concurrent use (one session may pipeline
// requests served by several gateway workers). Lookups dominate the
// request path — every call and release resolves a handle — so reads
// take a shared lock and only Add/Remove/Drain write-lock.
type Namespace struct {
	mu       sync.RWMutex
	next     int64
	byHandle map[int64]NSEntry
	byHash   map[int64]int64 // identity hash -> handle (canonicalisation)
	drained  bool
}

// NSEntry names one session-owned object.
type NSEntry struct {
	// Handle is the session-local identifier issued to the client.
	Handle int64
	// Class is the object's class name.
	Class string
	// Hash is the world identity hash behind the handle.
	Hash int64
}

// NewNamespace creates an empty session namespace.
func NewNamespace() *Namespace {
	return &Namespace{
		byHandle: make(map[int64]NSEntry),
		byHash:   make(map[int64]int64),
	}
}

// Add issues a handle for (class, hash). An object already named by this
// namespace keeps its canonical handle: added reports false and the
// caller must drop whatever duplicate retention it took for the object.
// After Drain the namespace is closed and Add reports added=false with
// handle 0.
func (ns *Namespace) Add(class string, hash int64) (handle int64, added bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.drained {
		return 0, false
	}
	if h, ok := ns.byHash[hash]; ok {
		return h, false
	}
	ns.next++
	h := ns.next
	ns.byHandle[h] = NSEntry{Handle: h, Class: class, Hash: hash}
	ns.byHash[hash] = h
	return h, true
}

// Lookup resolves a handle issued by this namespace.
func (ns *Namespace) Lookup(handle int64) (NSEntry, bool) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	e, ok := ns.byHandle[handle]
	return e, ok
}

// Remove forgets a handle, returning its entry so the caller can drop
// the retention it holds for the object.
func (ns *Namespace) Remove(handle int64) (NSEntry, bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	e, ok := ns.byHandle[handle]
	if !ok {
		return NSEntry{}, false
	}
	delete(ns.byHandle, handle)
	delete(ns.byHash, e.Hash)
	return e, true
}

// Drain empties the namespace and closes it against further Adds,
// returning every live entry so session teardown can release the
// session's objects through the GC-release path exactly once.
func (ns *Namespace) Drain() []NSEntry {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	out := make([]NSEntry, 0, len(ns.byHandle))
	for _, e := range ns.byHandle {
		out = append(out, e)
	}
	ns.byHandle = make(map[int64]NSEntry)
	ns.byHash = make(map[int64]int64)
	ns.drained = true
	return out
}
