// Package boundary is the dispatch layer for cross-runtime calls: every
// transition a partitioned world makes — proxy relay invocations, GC
// sweep releases, batched call frames — is routed through a Dispatcher
// rather than hitting the raw ecall/ocall transport directly.
//
// A call crosses one of two ways. If a ring group is attached, the
// encoded call fits a slot and a producer is free, it rides the
// zero-copy ring (ringroute.go); otherwise it makes one full transition
// through the Transport, which charges simcfg.Config.TransitionCycles.
// Result-independent calls may first be coalesced by a Queue and
// flushed together; see queue.go.
//
// The package is mechanism-only: it never inspects call payloads, so
// the world layer stays the single owner of marshalling and dispatch
// semantics.
package boundary

import (
	"sync/atomic"
	"time"

	"montsalvat/internal/cycles"
	"montsalvat/internal/ring"
	"montsalvat/internal/telemetry"
)

// Transport performs full enclave transitions. *sgx.Enclave satisfies
// it.
type Transport interface {
	Ecall(id int, fn func() error) error
	Ocall(id int, fn func() error) error
}

// Stats counts how the dispatcher routed calls.
type Stats struct {
	// FullCalls crossed with a regular transition.
	FullCalls uint64
}

// Dispatcher routes cross-runtime calls over a Transport, or through
// ring groups when attached.
type Dispatcher struct {
	transport  Transport
	clock      *cycles.Clock
	ecallRings *ring.Group
	ocallRings *ring.Group

	full         atomic.Uint64
	ringCalls    atomic.Uint64
	ringFallback atomic.Uint64
	ringOversize atomic.Uint64

	// Telemetry instruments, resolved once by SetTelemetry. All nil when
	// observability is off; every use is nil-safe, so the disabled cost
	// is one pointer comparison per call.
	hDispatchNS *telemetry.Histogram
	hBodyCycles *telemetry.Histogram
}

// NewDispatcher builds a dispatcher over a transport. The clock is read
// to report the far-side body cost of a transition to its span and to
// the body-cycles histogram; nil turns that off.
func NewDispatcher(t Transport, clock *cycles.Clock) *Dispatcher {
	return &Dispatcher{transport: t, clock: clock}
}

// SetTelemetry attaches a metrics registry. The dispatcher resolves its
// instruments once here; the routing counters themselves stay private
// atomics and are absorbed by a collector at scrape time (see
// world.initTelemetry), so the hot path gains no extra writes.
func (d *Dispatcher) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	d.hDispatchNS = reg.Histogram("montsalvat_boundary_dispatch_ns")
	d.hBodyCycles = reg.Histogram("montsalvat_boundary_body_cycles")
}

// Invoke crosses the boundary with one full transition in the given
// direction (in=true enters the enclave) and runs fn on the other side.
// The span (nil for unsampled calls) receives the route, direction,
// routine id and the far-side body cost; the caller owns Finish.
func (d *Dispatcher) Invoke(in bool, id int, sp *telemetry.Span, fn func() error) error {
	sp.SetDir(in)
	sp.SetRoutine(id)
	sp.SetRoute("full")
	var start time.Time
	if d.hDispatchNS != nil {
		start = time.Now()
	}
	if d.clock != nil && (sp != nil || d.hBodyCycles != nil) {
		fn = d.observed(sp, fn)
	}
	d.full.Add(1)
	var err error
	if in {
		err = d.transport.Ecall(id, fn)
	} else {
		err = d.transport.Ocall(id, fn)
	}
	if d.hDispatchNS != nil {
		d.hDispatchNS.ObserveDuration(time.Since(start))
	}
	return err
}

// observed wraps fn to record its body cost (cycles charged between
// entry and return, excluding the transition itself) into the span and
// the body-cycles histogram.
func (d *Dispatcher) observed(sp *telemetry.Span, fn func() error) func() error {
	return func() error {
		start := d.clock.Total()
		err := fn()
		spent := d.clock.Total() - start
		sp.SetBodyCycles(spent)
		d.hBodyCycles.Observe(spent)
		return err
	}
}

// Close stops any attached ring groups.
func (d *Dispatcher) Close() {
	d.ecallRings.Close()
	d.ocallRings.Close()
}

// Stats returns a snapshot of the routing counters.
func (d *Dispatcher) Stats() Stats {
	return Stats{FullCalls: d.full.Load()}
}
