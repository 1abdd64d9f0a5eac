package persist

import (
	"errors"
	"fmt"
	"sync"
)

// Crash injection. The durability protocol is only as good as its worst
// crash site, so the Manager instruments every interesting point with a
// crashpoint hook. In production the Manager's Injector stays disarmed
// and a hook costs one uncontended lock; in tests an armed Injector
// (Manager.CrashInjector) makes the Manager return a typed *Crash
// mid-operation, after which the harness kills the world
// (World.Kill) and drives recovery. The matrix test in crash_test.go
// walks CrashPoints end to end.

// CrashPoint identifies one instrumented point in the commit protocols.
type CrashPoint int

// The crash matrix. Ordering follows the commit and checkpoint
// protocols (see Manager.Append / Manager.Checkpoint). A commit writes
// one frame for a whole group of mutations, so every append point
// fails every member of the group together.
const (
	// CrashBeforeAppend fires before any WAL bytes are written: the
	// mutations are applied in-enclave but never journaled (no caller
	// acks).
	CrashBeforeAppend CrashPoint = iota
	// CrashAfterSeal fires after the frame was sealed but before any
	// bytes reached storage: the whole group is lost, and since no
	// member was acked, recovery must surface none of them.
	CrashAfterSeal
	// CrashMidAppend fires after the length prefix and half the sealed
	// frame have been written — a torn frame at the log tail. Replay
	// drops the entire torn frame, so the group vanishes at
	// per-mutation granularity.
	CrashMidAppend
	// CrashAfterAppend fires after the frame is fully durable but
	// before any caller is told or parked waiter woken: recovery may
	// legitimately surface every mutation of the group even though none
	// was acked.
	CrashAfterAppend
	// CrashBeforeCheckpointSeal fires after the flush barrier, before
	// any checkpoint state is captured.
	CrashBeforeCheckpointSeal
	// CrashMidCheckpoint fires with half the sealed checkpoint file
	// written — a torn checkpoint that must not shadow its predecessor.
	CrashMidCheckpoint
	// CrashAfterCheckpointWrite fires between writing the sealed
	// checkpoint and bumping the monotonic counter: the blob's stamp is
	// one ahead of the counter and must be discarded on recovery.
	CrashAfterCheckpointWrite
	// CrashAfterCounterBump fires after the counter bump but before old
	// checkpoints and segments are cleaned up.
	CrashAfterCounterBump
	// CrashMidTruncate fires after deleting one old segment with more
	// cleanup remaining.
	CrashMidTruncate

	numCrashPoints
)

// CrashPoints lists every instrumented point, for matrix tests.
func CrashPoints() []CrashPoint {
	pts := make([]CrashPoint, numCrashPoints)
	for i := range pts {
		pts[i] = CrashPoint(i)
	}
	return pts
}

var crashPointNames = [...]string{
	"before-append",
	"after-seal",
	"mid-append",
	"after-append",
	"before-checkpoint-seal",
	"mid-checkpoint",
	"after-checkpoint-write",
	"after-counter-bump",
	"mid-truncate",
}

func (p CrashPoint) String() string {
	if p < 0 || int(p) >= len(crashPointNames) {
		return fmt.Sprintf("crashpoint(%d)", int(p))
	}
	return crashPointNames[p]
}

// Crash is the typed error an armed Injector makes the Manager return.
// The simulated enclave is considered dead at that instant: the caller
// must tear the world down and recover.
type Crash struct {
	Point CrashPoint
}

func (c *Crash) Error() string {
	return fmt.Sprintf("persist: injected crash at %s", c.Point)
}

// IsCrash reports whether err is (or wraps) an injected crash.
func IsCrash(err error) bool {
	var c *Crash
	return errors.As(err, &c)
}

// Injector arms one crash point at a time. Safe for concurrent use.
// The zero value is disarmed.
type Injector struct {
	mu     sync.Mutex
	armed  bool
	point  CrashPoint
	remain int // fire on the remain'th hit (1 = next)
}

// Arm makes the next hit of point crash. Re-arming replaces any
// previous arming.
func (in *Injector) Arm(point CrashPoint) { in.ArmAfter(point, 1) }

// ArmAfter makes the n'th hit of point crash (n >= 1), so tests can
// crash on a later append or checkpoint rather than the first.
func (in *Injector) ArmAfter(point CrashPoint, n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armed = true
	in.point = point
	in.remain = n
}

// Disarm clears any armed crash point.
func (in *Injector) Disarm() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armed = false
}

// hit is called by the Manager at each instrumented point; it returns a
// *Crash when the armed point fires.
func (in *Injector) hit(point CrashPoint) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.armed || in.point != point {
		return nil
	}
	in.remain--
	if in.remain > 0 {
		return nil
	}
	in.armed = false
	return &Crash{Point: point}
}
