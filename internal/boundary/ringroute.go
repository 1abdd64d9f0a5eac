package boundary

import (
	"errors"
	"time"

	"montsalvat/internal/ring"
	"montsalvat/internal/telemetry"
)

// Ring routing: the zero-copy data plane (internal/ring) is the route
// beside the full transition. It is not a transition at all — the
// payload is encoded straight into a shared slot, sealed in place, and
// served by a resident consumer — so the dispatcher only arbitrates
// WHETHER a call may ride a ring and keeps the routing counters; the
// payload mechanics stay in the world layer's fill/done callbacks and
// the ring package. Any reason a call cannot ride (no group attached,
// payload over the slot capacity, every producer busy, group stopped)
// reports "didn't run" and the caller falls through to Invoke's frame
// path; never waiting for a ring keeps nested relay chains
// deadlock-free.

// RingStats counts ring-route outcomes at the dispatcher level.
type RingStats struct {
	// RingCalls rode a ring end to end (including batch submissions).
	RingCalls uint64
	// RingFallbacks wanted the ring but found it busy or stopped.
	RingFallbacks uint64
	// RingOversize exceeded the slot payload capacity and went to the
	// frame path.
	RingOversize uint64
}

// UseRings attaches the zero-copy ring groups: ecalls serves
// untrusted→trusted submissions, ocalls trusted→untrusted. Either may
// be nil; that direction then never routes through rings. The
// dispatcher takes ownership: Close also closes attached groups.
func (d *Dispatcher) UseRings(ecalls, ocalls *ring.Group) {
	d.ecallRings = ecalls
	d.ocallRings = ocalls
}

func (d *Dispatcher) rings(in bool) *ring.Group {
	if in {
		return d.ecallRings
	}
	return d.ocallRings
}

// HasRings reports whether a ring group is attached for the direction,
// so callers can skip preparing slot encodes entirely when the ring
// path is off.
func (d *Dispatcher) HasRings(in bool) bool {
	return d.rings(in) != nil
}

// InvokeRing tries to cross the boundary through a ring slot: fill
// encodes the request directly into the slot, done receives the opened
// response in place. need is the exact encoded request size. The bool
// reports whether the ring carried the call — (false, nil) means
// nothing ran and the caller must fall back to Invoke; when true,
// the error is the remote handler's (or done's).
func (d *Dispatcher) InvokeRing(in bool, id, need int, sp *telemetry.Span, fill func(slot []byte) ([]byte, error), done func(resp []byte) error) (bool, error) {
	g := d.rings(in)
	if g == nil {
		return false, nil
	}
	sp.SetDir(in)
	sp.SetRoutine(id)
	var start time.Time
	if d.hDispatchNS != nil {
		start = time.Now()
	}
	err := g.TryCall(id, need, sp, fill, done)
	switch {
	case errors.Is(err, ring.ErrTooLarge):
		d.ringOversize.Add(1)
		return false, nil
	case errors.Is(err, ring.ErrBusy), errors.Is(err, ring.ErrStopped):
		d.ringFallback.Add(1)
		sp.SetRoute("ring-fallback")
		return false, nil
	}
	d.ringCalls.Add(1)
	sp.SetRoute("ring")
	if d.hDispatchNS != nil {
		d.hDispatchNS.ObserveDuration(time.Since(start))
	}
	return true, err
}

// InvokeRingBatch tries to submit a set of void calls as individual
// ring entries consumed in shared wakeups (adaptive batching). Same
// ran/fell-back contract as InvokeRing; on (false, nil) the caller
// flushes the batch through the frame path instead. All-or-nothing:
// if any entry is oversized, none ride.
func (d *Dispatcher) InvokeRingBatch(in bool, entries []ring.BatchEntry) (bool, error) {
	g := d.rings(in)
	if g == nil {
		return false, nil
	}
	err := g.TryBatch(entries)
	switch {
	case errors.Is(err, ring.ErrTooLarge):
		d.ringOversize.Add(1)
		return false, nil
	case errors.Is(err, ring.ErrBusy), errors.Is(err, ring.ErrStopped):
		d.ringFallback.Add(1)
		return false, nil
	}
	d.ringCalls.Add(uint64(len(entries)))
	return true, err
}

// RingStats returns a snapshot of the ring routing counters.
func (d *Dispatcher) RingStats() RingStats {
	return RingStats{
		RingCalls:     d.ringCalls.Load(),
		RingFallbacks: d.ringFallback.Load(),
		RingOversize:  d.ringOversize.Load(),
	}
}
