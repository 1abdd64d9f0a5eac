// Package cycles provides CPU-cycle cost accounting for the SGX simulation.
//
// Every simulated hardware cost (enclave transitions, MEE traffic, EPC
// paging) is charged against a Clock. The Clock always maintains a
// deterministic virtual ledger (total cycles charged); when spinning is
// enabled it additionally busy-waits for the equivalent wall-clock time so
// that `testing.B` measurements reflect the charged costs.
package cycles

import (
	"sync/atomic"
	"time"
)

// Clock accounts simulated CPU cycles. It is safe for concurrent use
// and holds no background state.
type Clock struct {
	hz      float64
	spin    bool
	virtual atomic.Int64
}

// New returns a Clock modelling a core running at hz cycles per second.
// When spin is true, Charge busy-waits for the charged duration.
func New(hz float64, spin bool) *Clock {
	if hz <= 0 {
		hz = 1e9
	}
	return &Clock{hz: hz, spin: spin}
}

// Hz reports the modelled clock frequency.
func (c *Clock) Hz() float64 { return c.hz }

// Spinning reports whether the clock charges real wall-clock time by
// busy-waiting.
func (c *Clock) Spinning() bool { return c.spin }

// Charge records n cycles on the virtual ledger and, when the clock
// spins, busy-waits for the corresponding wall-clock duration.
// Non-positive charges are ignored.
func (c *Clock) Charge(n int64) {
	if n <= 0 {
		return
	}
	c.virtual.Add(n)
	if c.spin {
		spinFor(c.Duration(n))
	}
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
func (c *Clock) Total() int64 { return c.virtual.Load() }

// Reset zeroes the virtual ledger.
func (c *Clock) Reset() { c.virtual.Store(0) }

// Duration converts a cycle count to wall-clock time at this clock's
// frequency.
func (c *Clock) Duration(n int64) time.Duration {
	return time.Duration(float64(n) / c.hz * float64(time.Second))
}

// Cycles converts a wall-clock duration to cycles at this clock's
// frequency.
func (c *Clock) Cycles(d time.Duration) int64 {
	return int64(d.Seconds() * c.hz)
}

// spinFor busy-waits for approximately d. Durations under ~50ns are charged
// as a single cheap loop iteration; the granularity of time.Now limits
// precision but the aggregate over many charges is accurate, which is what
// the benchmarks measure.
func spinFor(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}
