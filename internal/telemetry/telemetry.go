// Package telemetry is the observability layer of the Montsalvat
// runtime: a low-overhead metrics registry plus a boundary-transition
// tracer, threaded through every enclave crossing.
//
// The design follows three rules:
//
//   - hot paths never allocate: counters and gauges are single atomics,
//     histograms are fixed arrays of atomic log-spaced buckets, and
//     trace spans are allocated only for sampled calls;
//   - everything is nil-safe: a disabled telemetry layer is a nil
//     pointer, so instrumented code pays one branch, not an interface
//     call, when observability is off;
//   - snapshot-style statistics that already exist elsewhere (the
//     crossing route counters, the gateway's admission counters,
//     the GC helpers' sweep stats) are absorbed through registered
//     collectors rather than duplicated on the hot path — the registry
//     is the single facade an operator scrapes, while the producing
//     layers keep their cheap private atomics.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Telemetry bundle. Its sampler is seeded with 1:
// two bundles at the same rate make the same sampling decisions in the
// same order.
type Options struct {
	// TraceSampleRate is the fraction of boundary-call roots that start
	// a trace (0 disables tracing, 1 traces everything). Children of a
	// sampled root are always captured so chains stay complete.
	TraceSampleRate float64
	// TraceBuffer is the capacity of the completed-span ring buffer
	// (default 256). Old spans are overwritten, never blocked on.
	TraceBuffer int
	// EventBuffer is the capacity of the structured event journal
	// (default 1024). Old events are overwritten, never blocked on.
	EventBuffer int
}

// Telemetry bundles a metrics registry with a transition tracer and a
// structured event journal. A nil *Telemetry is a valid disabled layer:
// Registry, Tracer, and Events return nil, and every instrument method
// on nil is a no-op.
type Telemetry struct {
	reg    *Registry
	tracer *Tracer
	events *EventLog
}

// New builds an enabled telemetry layer.
func New(opts Options) *Telemetry {
	if opts.TraceBuffer <= 0 {
		opts.TraceBuffer = 256
	}
	t := &Telemetry{reg: NewRegistry(), events: NewEventLog(opts.EventBuffer)}
	if opts.TraceSampleRate > 0 {
		t.tracer = NewTracer(opts.TraceSampleRate, opts.TraceBuffer, 1)
	}
	return t
}

// Registry returns the metrics registry (nil when t is nil).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Tracer returns the transition tracer (nil when t is nil or tracing is
// disabled by a zero sample rate).
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// Events returns the structured event journal (nil when t is nil).
func (t *Telemetry) Events() *EventLog {
	if t == nil {
		return nil
	}
	return t.events
}

// StartSnapshotLogger emits a one-line JSON snapshot of every metric to
// logf at the given interval — the headless-run counterpart of the HTTP
// endpoint. The returned stop function is idempotent.
func (t *Telemetry) StartSnapshotLogger(interval time.Duration, logf func(format string, args ...any)) (stop func()) {
	if t == nil || logf == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				logf("telemetry snapshot %s", t.reg.SnapshotJSON())
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil *Counter discards updates.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Set overwrites the counter value. It exists for collectors absorbing
// an externally maintained monotonic count; hot paths use Add.
func (c *Counter) Set(v uint64) {
	if c == nil {
		return
	}
	c.v.Store(v)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time signed value. The zero value is ready to
// use; a nil *Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
