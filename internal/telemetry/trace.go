package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Span is one traced boundary crossing: a proxy relay invocation, a
// batched frame flush, or a GC mirror-release transition. Spans form
// trees — a relay executing inside the enclave that proxies back out
// records the nested ocall as a child sharing the TraceID.
//
// A span is mutated only by the goroutine carrying the call, then
// published to the tracer's ring on Finish; all setters are nil-safe so
// unsampled calls cost one branch.
type Span struct {
	tracer *Tracer

	// TraceID groups every span of one cross-boundary call chain;
	// SpanID identifies this span; ParentID is 0 for roots.
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id,omitempty"`

	// Name labels the operation (e.g. "relay KVStore.put").
	Name string `json:"name"`
	// Dir is the transition direction: "ecall" or "ocall".
	Dir string `json:"dir,omitempty"`
	// Route records how the call crossed: "ring", "resident" (handed
	// across a gateway lane, either way) or "full". A call that found its ring busy or
	// stopped crosses in full and reads "full"; the ring-fallback route
	// is counted, not traced.
	Route string `json:"route,omitempty"`
	// RoutineID is the EDL routine id of the transition.
	RoutineID int `json:"routine_id,omitempty"`

	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// QueueWaitNS is time spent queued before the transition ran (the
	// oldest entry's wait for a batched flush).
	QueueWaitNS int64 `json:"queue_wait_ns,omitempty"`
	// MarshalBytes counts argument plus result bytes serialized across
	// the boundary for this call.
	MarshalBytes int `json:"marshal_bytes,omitempty"`
	// BodyCycles is the simulated cycle cost charged by the call body
	// on the far side, excluding the transition itself.
	BodyCycles int64 `json:"body_cycles,omitempty"`
	// BatchSize is the number of coalesced calls for a batched flush.
	BatchSize int `json:"batch_size,omitempty"`
	// Node names the fabric actor that recorded this span ("router",
	// "shard-2", "shard-2/replica-0", ...), stamped where the span
	// starts: a child takes its parent's node, any other span its
	// tracer's (a fleet node's view, see Fleet.Node). Empty for
	// single-World runs.
	Node string `json:"node,omitempty"`
	// Epoch is the fabric table epoch observed by this hop.
	Epoch uint64 `json:"epoch,omitempty"`
	// SealedBytes counts sealed (AES-GCM) payload bytes carried by this
	// hop — checkpoint/WAL deltas for shipping spans.
	SealedBytes int `json:"sealed_bytes,omitempty"`
	// Redirect annotates a wrong-shard hop: "owner 2->1 epoch 3".
	Redirect string `json:"redirect,omitempty"`
	// Err carries the call error, if any.
	Err string `json:"err,omitempty"`
}

// SpanContext is the injectable/extractable wire form of a span's
// identity: enough to continue the trace on another World across a
// session or peer-channel frame. The zero value means "no trace".
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether sc carries a live trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 }

// Context extracts the propagation context of sp (zero when sp is nil,
// so unsampled chains inject the no-trace context for free).
func (sp *Span) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: sp.TraceID, SpanID: sp.SpanID}
}

// SetDir records the transition direction.
func (sp *Span) SetDir(in bool) {
	if sp == nil {
		return
	}
	if in {
		sp.Dir = "ecall"
	} else {
		sp.Dir = "ocall"
	}
}

// SetRoute records how the call crossed.
func (sp *Span) SetRoute(route string) {
	if sp == nil {
		return
	}
	sp.Route = route
}

// SetRoutine records the EDL routine id.
func (sp *Span) SetRoutine(id int) {
	if sp == nil {
		return
	}
	sp.RoutineID = id
}

// AddMarshalBytes accumulates serialized boundary traffic.
func (sp *Span) AddMarshalBytes(n int) {
	if sp == nil {
		return
	}
	sp.MarshalBytes += n
}

// SetBodyCycles records the far-side body cost.
func (sp *Span) SetBodyCycles(c int64) {
	if sp == nil {
		return
	}
	sp.BodyCycles = c
}

// SetQueueWait records time spent queued before the transition.
func (sp *Span) SetQueueWait(d time.Duration) {
	if sp == nil {
		return
	}
	sp.QueueWaitNS = int64(d)
}

// SetBatchSize records the coalesced call count of a batched flush.
func (sp *Span) SetBatchSize(n int) {
	if sp == nil {
		return
	}
	sp.BatchSize = n
}

// SetNode records the fabric actor identity.
func (sp *Span) SetNode(node string) {
	if sp == nil {
		return
	}
	sp.Node = node
}

// SetEpoch records the fabric table epoch observed by this hop.
func (sp *Span) SetEpoch(e uint64) {
	if sp == nil {
		return
	}
	sp.Epoch = e
}

// SetSealedBytes records the sealed payload size carried by this hop.
func (sp *Span) SetSealedBytes(n int) {
	if sp == nil {
		return
	}
	sp.SealedBytes = n
}

// SetRedirect annotates a wrong-shard redirect hop.
func (sp *Span) SetRedirect(oldOwner, newOwner int, epoch uint64) {
	if sp == nil {
		return
	}
	sp.Redirect = "owner " + itoa(oldOwner) + "->" + itoa(newOwner) + " epoch " + utoa(epoch)
}

// itoa/utoa avoid importing fmt on the span hot path.
func itoa(v int) string {
	if v < 0 {
		return "-" + utoa(uint64(-v))
	}
	return utoa(uint64(v))
}

func utoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Finish stamps the end time, records the error, and publishes the
// span into the tracer's ring buffer.
func (sp *Span) Finish(err error) {
	if sp == nil {
		return
	}
	sp.EndNS = time.Now().UnixNano()
	if err != nil {
		sp.Err = err.Error()
	}
	if sp.tracer != nil {
		sp.tracer.publish(sp)
	}
}

// Tracer samples boundary-call chains into a fixed-size lock-free ring
// of completed spans. Sampling is decided at the root of a chain; child
// spans of a sampled root are always captured. The nodes of a fleet
// share one ring through views that differ only in the node they stamp.
type Tracer struct {
	*spanRing
	node string
}

// spanRing is the state every view of one tracer shares.
type spanRing struct {
	ring   []atomic.Pointer[Span]
	next   atomic.Uint64 // ring write cursor
	thresh uint64        // sample iff next prng draw < thresh
	rng    atomic.Uint64 // splitmix64 state
	ids    atomic.Uint64 // span/trace id sequence
}

// NewTracer builds a tracer sampling the given fraction of roots into a
// ring of the given capacity, with a deterministic seeded sampler.
func NewTracer(sampleRate float64, buffer int, seed uint64) *Tracer {
	if buffer <= 0 {
		buffer = 256
	}
	t := &Tracer{spanRing: &spanRing{ring: make([]atomic.Pointer[Span], buffer)}}
	switch {
	case sampleRate >= 1:
		t.thresh = math.MaxUint64
	case sampleRate <= 0:
		t.thresh = 0
	default:
		t.thresh = uint64(sampleRate * float64(math.MaxUint64))
	}
	t.rng.Store(seed)
	return t
}

// forNode returns a view of t that stamps node on the spans it starts
// without a parent (nil when t is nil).
func (t *Tracer) forNode(node string) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{spanRing: t.spanRing, node: node}
}

// splitmix64 advances the sampler state and returns the next draw. The
// additive-constant construction keeps the draw lock-free under
// concurrency while the sequence of states stays deterministic for a
// single-threaded caller (what the sampling-determinism test pins).
func (t *Tracer) splitmix64() uint64 {
	z := t.rng.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Sampled draws one sampling decision. Exported for tests.
func (t *Tracer) Sampled() bool {
	if t == nil {
		return false
	}
	if t.thresh == math.MaxUint64 {
		return true
	}
	if t.thresh == 0 {
		return false
	}
	return t.splitmix64() < t.thresh
}

// StartRoot starts a root span, or returns nil if this chain is not
// sampled (or t is nil).
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil || !t.Sampled() {
		return nil
	}
	id := t.ids.Add(1)
	return &Span{
		tracer:  t,
		TraceID: id,
		SpanID:  id,
		Name:    name,
		Node:    t.node,
		StartNS: time.Now().UnixNano(),
	}
}

// StartRemote continues a trace that began on another World: the new
// span joins sc's trace as a child of the remote span. Sampling was
// decided at the remote root — a valid context is always captured, an
// invalid (zero) context falls back to a locally sampled root. Returns
// nil when t is nil.
func (t *Tracer) StartRemote(sc SpanContext, name string) *Span {
	if t == nil {
		return nil
	}
	if !sc.Valid() {
		return t.StartRoot(name)
	}
	return &Span{
		tracer:   t,
		TraceID:  sc.TraceID,
		SpanID:   t.ids.Add(1),
		ParentID: sc.SpanID,
		Name:     name,
		Node:     t.node,
		StartNS:  time.Now().UnixNano(),
	}
}

// StartChild starts a child of parent, or returns nil when parent is
// nil — children exist only inside sampled chains.
func (t *Tracer) StartChild(parent *Span, name string) *Span {
	if t == nil || parent == nil {
		return nil
	}
	return &Span{
		tracer:   t,
		TraceID:  parent.TraceID,
		SpanID:   t.ids.Add(1),
		ParentID: parent.SpanID,
		Name:     name,
		Node:     parent.Node,
		StartNS:  time.Now().UnixNano(),
	}
}

// publish stores a finished span into the ring, overwriting the oldest
// slot on wraparound.
func (t *Tracer) publish(sp *Span) {
	i := t.next.Add(1) - 1
	t.ring[i%uint64(len(t.ring))].Store(sp)
}

// Dump returns the retained spans, oldest first (best effort under
// concurrent publishing). The returned spans are copies.
func (t *Tracer) Dump() []Span {
	if t == nil {
		return nil
	}
	n := uint64(len(t.ring))
	head := t.next.Load()
	start := uint64(0)
	if head > n {
		start = head - n
	}
	out := make([]Span, 0, n)
	for i := start; i < head; i++ {
		if sp := t.ring[i%n].Load(); sp != nil {
			cp := *sp
			cp.tracer = nil
			out = append(out, cp)
		}
	}
	return out
}

// Len reports how many spans are currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.Dump())
}
