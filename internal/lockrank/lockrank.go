// Package lockrank provides ranked mutex shims for checking the
// crossing engine's documented lock hierarchies at runtime.
//
// The engine documents two acquisition orders (DESIGN.md §12 and the
// field comments in world/runtime.go and fabric/shard.go):
//
//	fabric/persist:  n.mu > shipper ioMu > commit queue > manager mutex
//	world:           pin < heap
//
// Both read outermost-first: a goroutine holding an outer lock may take
// an inner one, never the reverse. lockrank.Mutex is a drop-in
// replacement for sync.Mutex at those sites; each instance carries a
// rank from the table below, and while checking is enabled every
// acquisition is validated against the ranks the goroutine already
// holds. An inversion — acquiring a rank at or above one already held —
// is recorded as a violation the orderly explorer surfaces as an
// invariant failure.
//
// Checking is off by default: an unranked or disabled mutex costs one
// atomic load over sync.Mutex, so production paths (heapMu is taken on
// every field access) pay nothing measurable. Enable flips the global
// switch; it is meant for the model checker and for tests, not for
// serving builds.
package lockrank

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Ranks, outermost (acquired first) to innermost. The two documented
// chains compose into one total order because persist's manager mutex
// is held across world Execs (checkpoint snapshots drive the store
// through the boundary), so every world rank sits inside every
// fabric/persist rank.
const (
	RankFabricNode int32 = 20 // fabric shardNode.mu
	RankShipIO     int32 = 30 // fabric shipper.ioMu
	RankGroupQueue int32 = 50 // persist Manager.qmu (commit queue)
	RankManager    int32 = 60 // persist Manager.mu
	RankWorldPin   int32 = 70 // world Runtime.pinMu
	RankWorldHeap  int32 = 80 // world Runtime.heapMu
)

// maxViolations bounds the retained violation log; a broken hierarchy
// trips on every crossing, and one report per site is plenty.
const maxViolations = 32

var (
	enabled atomic.Bool

	stateMu    sync.Mutex
	held       map[uint64][]holding
	violations []string
	dropped    uint64
)

type holding struct {
	rank int32
	name string
}

// Enable turns hierarchy checking on, clearing any previous held-lock
// bookkeeping and violation log. The returned function disables it
// again.
func Enable() (disable func()) {
	stateMu.Lock()
	held = make(map[uint64][]holding)
	violations = nil
	dropped = 0
	stateMu.Unlock()
	enabled.Store(true)
	return func() { enabled.Store(false) }
}

// TakeViolations drains and returns the recorded hierarchy violations.
func TakeViolations() []string {
	stateMu.Lock()
	defer stateMu.Unlock()
	v := violations
	violations = nil
	if dropped > 0 {
		v = append(v, fmt.Sprintf("lockrank: %d further violations dropped", dropped))
		dropped = 0
	}
	return v
}

// Mutex is a sync.Mutex carrying a lock-hierarchy rank. The zero value
// is an unranked mutex: usable, never checked. SetRank must be called
// before first use to participate in checking.
type Mutex struct {
	mu   sync.Mutex
	rank int32
	name string
}

// SetRank assigns the mutex's position in the hierarchy and a name for
// violation reports. Call once, at construction, before any Lock.
func (m *Mutex) SetRank(rank int32, name string) {
	m.rank = rank
	m.name = name
}

// Lock acquires the mutex, recording the rank when checking is on.
func (m *Mutex) Lock() {
	if m.rank != 0 && enabled.Load() {
		acquire(m.rank, m.name)
	}
	m.mu.Lock()
}

// Unlock releases the mutex and drops its rank from the holder's set.
func (m *Mutex) Unlock() {
	m.mu.Unlock()
	if m.rank != 0 && enabled.Load() {
		release(m.rank)
	}
}

// acquire validates rank against everything the goroutine already
// holds and pushes it. Ordering rule: ranks are acquired strictly
// ascending, so an acquisition at or below a held rank is an inversion.
func acquire(rank int32, name string) {
	g := gid()
	stateMu.Lock()
	defer stateMu.Unlock()
	hs := held[g]
	for _, h := range hs {
		if h.rank >= rank {
			if len(violations) < maxViolations {
				violations = append(violations, fmt.Sprintf(
					"lock hierarchy inverted: acquired %s (rank %d) while holding %s (rank %d)",
					name, rank, h.name, h.rank))
			} else {
				dropped++
			}
			break
		}
	}
	if held == nil {
		held = make(map[uint64][]holding)
	}
	held[g] = append(hs, holding{rank, name})
}

// release pops the newest matching rank. Tolerant of enable/disable
// races: a rank acquired before Enable simply is not found.
func release(rank int32) {
	g := gid()
	stateMu.Lock()
	defer stateMu.Unlock()
	hs := held[g]
	for i := len(hs) - 1; i >= 0; i-- {
		if hs[i].rank == rank {
			hs = append(hs[:i], hs[i+1:]...)
			break
		}
	}
	if len(hs) == 0 {
		delete(held, g)
	} else {
		held[g] = hs
	}
}

// gid extracts the current goroutine's id from its stack header
// ("goroutine N [running]:"). Only called while checking is enabled;
// the stack capture costs ~1µs, irrelevant next to the crossings the
// checker drives.
func gid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	id := uint64(0)
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
