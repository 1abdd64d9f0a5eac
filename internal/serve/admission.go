package serve

import (
	"context"
	"sync/atomic"
	"time"
)

// admission is the gateway's bounded in-flight controller and its
// lifecycle gate. At most maxInFlight requests execute concurrently; at
// most queueDepth more may wait for a slot. Anything beyond that is
// rejected immediately with ErrOverloaded, a request whose deadline
// expires while queued is rejected with ErrDeadline, and while the
// gateway drains or recovers every new request and handshake is refused
// with the state's error — overload degrades into typed errors, never
// into an unbounded queue.
type admission struct {
	tokens chan struct{}
	// state is the refusal new work gets: nil while open, &ErrRecovering
	// while Recover runs, &ErrDraining for good once Shutdown starts,
	// which also closes abort to turn queued waiters away.
	state      atomic.Pointer[error]
	abort      chan struct{}
	waiters    atomic.Int64
	queueDepth int64
	inFlight   atomic.Int64
	peak       atomic.Int64
}

func newAdmission(maxInFlight, queueDepth int) *admission {
	if maxInFlight <= 0 {
		maxInFlight = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	a := &admission{
		tokens:     make(chan struct{}, maxInFlight),
		abort:      make(chan struct{}),
		queueDepth: int64(queueDepth),
	}
	for i := 0; i < maxInFlight; i++ {
		a.tokens <- struct{}{}
	}
	return a
}

// refusal returns the error new work gets right now: ErrDraining,
// ErrRecovering, or nil while the gateway is open.
func (a *admission) refusal() error {
	if p := a.state.Load(); p != nil {
		return *p
	}
	return nil
}

// acquire takes an execution slot, unless the gateway refuses new work.
// deadline zero means no deadline.
func (a *admission) acquire(deadline time.Time) error {
	select {
	case <-a.tokens:
		return a.admitted()
	default:
	}
	// Slow path: queue for a slot, bounded by queueDepth.
	if a.waiters.Add(1) > a.queueDepth {
		a.waiters.Add(-1)
		return ErrOverloaded
	}
	defer a.waiters.Add(-1)
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-a.tokens:
		return a.admitted()
	case <-timeout:
		return ErrDeadline
	case <-a.abort:
		return ErrDraining
	}
}

// admitted counts a slot just taken, then reads the gateway's state and
// gives the slot back if new work is refused. A request holds its slot
// before it reads the state, and a drain sets the state before it takes
// the slots, so once drain holds every slot each request either read
// the new state and gave its slot back, or finished.
func (a *admission) admitted() error {
	cur := a.inFlight.Add(1)
	for {
		p := a.peak.Load()
		if cur <= p || a.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	if err := a.refusal(); err != nil {
		a.release()
		return err
	}
	return nil
}

// release returns an execution slot.
func (a *admission) release() {
	a.inFlight.Add(-1)
	a.tokens <- struct{}{}
}

// drain waits, bounded by ctx, until no admitted request holds a slot:
// it takes every slot and gives them back. Once giveUp is closed it
// stops waiting and returns ErrClosed.
func (a *admission) drain(ctx context.Context, giveUp <-chan struct{}) error {
	var err error
	taken := 0
	for err == nil && taken < cap(a.tokens) {
		select {
		case <-a.tokens:
			taken++
		case <-ctx.Done():
			err = ctx.Err()
		case <-giveUp:
			err = ErrClosed
		}
	}
	for ; taken > 0; taken-- {
		a.tokens <- struct{}{}
	}
	return err
}
