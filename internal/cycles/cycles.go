// Package cycles provides CPU-cycle cost accounting for the SGX simulation.
//
// Every simulated hardware cost (enclave transitions, MEE traffic, EPC
// paging) is charged against a Clock, a deterministic ledger of the
// cycles charged. Charging takes no wall-clock time: a measurement that
// wants the modelled time adds Duration of the ledger's delta to the
// host time it measured.
package cycles

import (
	"sync/atomic"
	"time"
)

// Clock accounts simulated CPU cycles. It is safe for concurrent use
// and holds no background state.
type Clock struct {
	hz      float64
	charged atomic.Int64
}

// New returns a Clock modelling a core running at hz cycles per second
// (1 GHz when hz is not positive).
func New(hz float64) *Clock {
	if hz <= 0 {
		hz = 1e9
	}
	return &Clock{hz: hz}
}

// Charge records n cycles on the ledger. Non-positive charges are
// ignored.
func (c *Clock) Charge(n int64) {
	if n <= 0 {
		return
	}
	c.charged.Add(n)
}

// ChargeBytes charges the cycle cost of moving n bytes at the given
// throughput in bytes per cycle.
func (c *Clock) ChargeBytes(n int, bytesPerCycle float64) {
	if n <= 0 || bytesPerCycle <= 0 {
		return
	}
	c.Charge(int64(float64(n) / bytesPerCycle))
}

// Total returns the cycles charged so far.
func (c *Clock) Total() int64 { return c.charged.Load() }

// Duration converts a cycle count to wall-clock time at this clock's
// frequency.
func (c *Clock) Duration(n int64) time.Duration {
	return time.Duration(float64(n) / c.hz * float64(time.Second))
}

// Tab holds back one owner's charges to a Clock and puts them on it at
// once: a data path that charges every memory access pays one atomic
// add per critical section instead of one per access. A Tab is not safe
// for concurrent use; its owner serialises every charge and Settle, and
// settles before anyone else may look at the clock for its work (in the
// product, on leaving the runtime's heap lock). Each charge is rounded
// as Clock.ChargeBytes rounds it, so a settled Tab adds to the ledger
// exactly what charging the Clock directly would have.
type Tab struct {
	clock *Clock
	owed  int64
}

// NewTab returns an empty Tab on c.
func NewTab(c *Clock) *Tab { return &Tab{clock: c} }

// ChargeBytes holds back the cost Clock.ChargeBytes would charge.
func (t *Tab) ChargeBytes(n int, bytesPerCycle float64) {
	if n <= 0 || bytesPerCycle <= 0 {
		return
	}
	t.owed += int64(float64(n) / bytesPerCycle)
}

// Settle charges what the Tab holds to its Clock and empties it.
func (t *Tab) Settle() {
	if t.owed > 0 {
		t.clock.Charge(t.owed)
		t.owed = 0
	}
}
