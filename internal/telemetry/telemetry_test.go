package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsExactBelowCutoff(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < smallCutoff; v++ {
		h.Observe(v)
		if got := bucketUpper(bucketIndex(v)); got != v {
			t.Fatalf("value %d: bucket upper %d, want exact", v, got)
		}
	}
	if h.Count() != smallCutoff {
		t.Fatalf("count = %d, want %d", h.Count(), smallCutoff)
	}
}

func TestHistogramBucketBoundsContainValue(t *testing.T) {
	// Every value must land in a bucket whose upper bound is >= the
	// value and within 12.5% relative error.
	vals := []int64{16, 17, 100, 1000, 4095, 4096, 1 << 20, 1<<40 + 12345, 1<<62 + 99}
	for _, v := range vals {
		i := bucketIndex(v)
		up := bucketUpper(i)
		if up < v {
			t.Fatalf("value %d: bucket upper %d below value", v, up)
		}
		if float64(up-v) > 0.125*float64(v)+1 {
			t.Fatalf("value %d: bucket upper %d exceeds 12.5%% error", v, up)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1..1000: p50 ~ 500, p99 ~ 990, max exact.
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	check := func(q float64, want int64) {
		t.Helper()
		got := h.Quantile(q)
		lo := want - want/8 - 1
		hi := want + want/8 + 1
		if got < lo || got > hi {
			t.Fatalf("q=%v: got %d, want within [%d,%d]", q, got, lo, hi)
		}
	}
	check(0.50, 500)
	check(0.95, 950)
	check(0.99, 990)
	if h.Max() != 1000 {
		t.Fatalf("max = %d, want 1000", h.Max())
	}
	if h.Quantile(1) != 1000 {
		t.Fatalf("p100 = %d, want exact max 1000", h.Quantile(1))
	}
	if got := h.Snapshot().Sum; got != 1000*1001/2 {
		t.Fatalf("sum = %d", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(w*perWorker + i))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*perWorker {
		t.Fatalf("count = %d, want %d", h.Count(), workers*perWorker)
	}
	if h.Max() != workers*perWorker-1 {
		t.Fatalf("max = %d, want %d", h.Max(), workers*perWorker-1)
	}
	var bucketSum uint64
	for i := 0; i < numBuckets; i++ {
		bucketSum += h.buckets[i].Load()
	}
	if bucketSum != workers*perWorker {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, workers*perWorker)
	}
}

func TestRegistryConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Re-resolve each time to exercise the get-or-create path.
				reg.Counter("test_total", "route", "full").Inc()
				reg.Gauge("test_gauge").Set(perWorker)
				reg.Histogram("test_ns").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("test_total", "route", "full").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("test_gauge").Value(); got != perWorker {
		t.Fatalf("gauge = %d, want %d", got, perWorker)
	}
	if got := reg.Histogram("test_ns").Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestNilSafety(t *testing.T) {
	var tel *Telemetry
	var reg *Registry
	var h *Histogram
	var c *Counter
	var g *Gauge
	var tr *Tracer
	var sp *Span

	if tel.Registry() != nil || tel.Tracer() != nil {
		t.Fatal("nil telemetry must yield nil registry/tracer")
	}
	tel.StartSnapshotLogger(time.Second, nil)()
	if reg.Counter("x") != nil || reg.Gauge("x") != nil || reg.Histogram("x") != nil {
		t.Fatal("nil registry must yield nil instruments")
	}
	reg.RegisterCollector(func(*Registry) {})
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	h.Observe(1)
	c.Inc()
	c.Add(2)
	c.Set(3)
	g.Set(1)
	if tr.Sampled() || tr.StartRoot("x") != nil || tr.Dump() != nil {
		t.Fatal("nil tracer must be inert")
	}
	sp.SetDir(true)
	sp.SetRoute("full")
	sp.SetRoutine(1)
	sp.AddMarshalBytes(1)
	sp.AddBodyCycles(1)
	sp.SetQueueWait(time.Second)
	sp.SetBatchSize(1)
	sp.Finish(nil)
	if h.Count() != 0 || c.Value() != 0 || g.Value() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must report zero")
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(1, 8, 1)
	for i := 0; i < 20; i++ {
		sp := tr.StartRoot(fmt.Sprintf("span-%d", i))
		if sp == nil {
			t.Fatalf("rate 1 must sample every root (i=%d)", i)
		}
		sp.Finish(nil)
	}
	spans := tr.Dump()
	if len(spans) != 8 {
		t.Fatalf("ring retained %d spans, want 8", len(spans))
	}
	// Oldest-first: spans 12..19 survive.
	for i, sp := range spans {
		want := fmt.Sprintf("span-%d", 12+i)
		if sp.Name != want {
			t.Fatalf("slot %d = %q, want %q", i, sp.Name, want)
		}
	}
}

func TestTracerSamplingDeterministic(t *testing.T) {
	decisions := func(seed uint64) []bool {
		tr := NewTracer(0.25, 16, seed)
		out := make([]bool, 64)
		for i := range out {
			out[i] = tr.Sampled()
		}
		return out
	}
	a := decisions(42)
	b := decisions(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	sampled := 0
	for _, d := range a {
		if d {
			sampled++
		}
	}
	if sampled == 0 || sampled == len(a) {
		t.Fatalf("rate 0.25 sampled %d/%d, want a strict subset", sampled, len(a))
	}
	c := decisions(7)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical decision sequences")
	}
}

func TestTracerRates(t *testing.T) {
	never := NewTracer(0, 8, 1)
	if never.Sampled() {
		t.Fatal("rate 0 must never sample")
	}
	if sp := never.StartRoot("x"); sp != nil {
		t.Fatal("rate 0 must not start roots")
	}
	always := NewTracer(1, 8, 1)
	for i := 0; i < 100; i++ {
		if !always.Sampled() {
			t.Fatal("rate 1 must always sample")
		}
	}
}

func TestTracerChildChain(t *testing.T) {
	tr := NewTracer(1, 16, 1)
	root := tr.StartRoot("ecall relay")
	child := tr.StartChild(root, "nested ocall")
	if child.TraceID != root.TraceID {
		t.Fatal("child must share the root's trace id")
	}
	if child.ParentID != root.SpanID {
		t.Fatal("child parent id must be the root span id")
	}
	if child.SpanID == root.SpanID {
		t.Fatal("child must get a fresh span id")
	}
	child.Finish(nil)
	root.Finish(nil)
	if len(tr.Dump()) != 2 {
		t.Fatalf("ring has %d spans, want 2", len(tr.Dump()))
	}
	if tr.StartChild(nil, "orphan") != nil {
		t.Fatal("child of nil parent must be nil (unsampled chain)")
	}
}

func TestTracerConcurrentPublish(t *testing.T) {
	tr := NewTracer(1, 32, 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.StartRoot("load")
				sp.SetRoute("ring")
				sp.Finish(nil)
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Dump()); got != 32 {
		t.Fatalf("ring retained %d spans, want full 32", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("montsalvat_boundary_calls_total", "route", "full").Add(3)
	reg.Counter("montsalvat_boundary_calls_total", "route", "ring").Add(7)
	reg.Gauge("montsalvat_sgx_tcs_in_use").Set(2)
	h := reg.Histogram("montsalvat_serve_request_ns")
	h.Observe(10)
	h.Observe(500)
	reg.RegisterCollector(func(r *Registry) {
		r.Counter("collected_total").Set(99)
	})

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE montsalvat_boundary_calls_total counter",
		`montsalvat_boundary_calls_total{route="full"} 3`,
		`montsalvat_boundary_calls_total{route="ring"} 7`,
		"# TYPE montsalvat_sgx_tcs_in_use gauge",
		"montsalvat_sgx_tcs_in_use 2",
		"# TYPE montsalvat_serve_request_ns histogram",
		`montsalvat_serve_request_ns_bucket{le="10"} 1`,
		`montsalvat_serve_request_ns_bucket{le="+Inf"} 2`,
		"montsalvat_serve_request_ns_sum 510",
		"montsalvat_serve_request_ns_count 2",
		"collected_total 99",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE montsalvat_boundary_calls_total counter") != 1 {
		t.Fatal("TYPE line must appear once per base name")
	}
}

func TestSnapshotJSON(t *testing.T) {
	tel := New(Options{TraceSampleRate: 1, TraceBuffer: 4})
	tel.Registry().Counter("a_total").Add(5)
	tel.Registry().Histogram("lat_ns").Observe(100)
	var snap Snapshot
	if err := json.Unmarshal([]byte(tel.Registry().SnapshotJSON()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["a_total"] != 5 {
		t.Fatalf("snapshot counter = %d, want 5", snap.Counters["a_total"])
	}
	if hs := snap.Histograms["lat_ns"]; hs.Count != 1 || hs.Max != 100 {
		t.Fatalf("snapshot histogram = %+v", hs)
	}
}

func TestSnapshotLogger(t *testing.T) {
	tel := New(Options{})
	tel.Registry().Counter("beat_total").Inc()
	var mu sync.Mutex
	var lines []string
	stop := tel.StartSnapshotLogger(5*time.Millisecond, func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(lines)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot logger emitted nothing")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(lines[0], "beat_total") {
		t.Fatalf("snapshot line missing metric: %q", lines[0])
	}
}

func TestHTTPEndpoints(t *testing.T) {
	tel := New(Options{TraceSampleRate: 1, TraceBuffer: 8})
	tel.Registry().Counter("montsalvat_boundary_calls_total", "route", "full").Add(2)
	sp := tel.Tracer().StartRoot("relay KVStore.put")
	tel.Tracer().StartChild(sp, "ocall AuditLog.record").Finish(nil)
	sp.Finish(nil)

	srv, err := Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if out := get("/metrics"); !strings.Contains(out, `montsalvat_boundary_calls_total{route="full"} 2`) {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	var spans []Span
	if err := json.Unmarshal([]byte(get("/traces")), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("/traces returned %d spans, want 2", len(spans))
	}
	if spans[0].Name != "ocall AuditLog.record" || spans[0].ParentID == 0 {
		t.Fatalf("nested span malformed: %+v", spans[0])
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/snapshot")), &snap); err != nil {
		t.Fatal(err)
	}
	if get("/healthz") != "ok\n" {
		t.Fatal("healthz mismatch")
	}
	// The runtime's profiles ride the same endpoint: the index lists
	// them and a named one (goroutine stacks, in text form) comes back.
	if out := get("/debug/pprof/"); !strings.Contains(out, "goroutine") || !strings.Contains(out, "heap") {
		t.Fatalf("/debug/pprof/ index lists no profiles:\n%s", out)
	}
	if out := get("/debug/pprof/goroutine?debug=1"); !strings.Contains(out, "goroutine profile:") {
		t.Fatalf("/debug/pprof/goroutine:\n%s", out)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.RunParallel(func(pb *testing.PB) {
		var v int64
		for pb.Next() {
			v++
			h.Observe(v)
		}
	})
}

func BenchmarkNilHistogramObserve(b *testing.B) {
	var h *Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkNilSpanSetters(b *testing.B) {
	var sp *Span
	for i := 0; i < b.N; i++ {
		sp.SetRoute("full")
		sp.AddBodyCycles(int64(i))
		sp.Finish(nil)
	}
}

// TestEventLogSeqMonotonicAndWraparound: Seq is the ordering authority
// — strictly monotonic across emissions — and the ring retains exactly
// the last buffer events after wraparound.
func TestEventLogSeqMonotonicAndWraparound(t *testing.T) {
	l := NewEventLog(8)
	for i := 0; i < 20; i++ {
		l.Emit(EventShip, "shard-0", 0, "event %d", i)
	}
	events := l.Dump()
	if len(events) != 8 {
		t.Fatalf("retained %d events, want ring size 8", len(events))
	}
	for i, ev := range events {
		if want := uint64(13 + i); ev.Seq != want {
			t.Fatalf("event %d Seq = %d, want %d", i, ev.Seq, want)
		}
		if want := fmt.Sprintf("event %d", 12+i); ev.Detail != want {
			t.Fatalf("event %d detail = %q, want %q", i, ev.Detail, want)
		}
	}
	if got := len(l.Dump()); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
}

// TestEventLogConcurrentEmit hammers one journal from many goroutines:
// every retained Seq must be unique and Dump must come back sorted.
// Run under -race this also exercises the lock-free slot protocol.
func TestEventLogConcurrentEmit(t *testing.T) {
	l := NewEventLog(4096)
	const (
		emitters = 8
		each     = 400
	)
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Emit(EventCounterAdvance, fmt.Sprintf("shard-%d", g), uint64(g), "tick %d", i)
			}
		}(g)
	}
	wg.Wait()
	events := l.Dump()
	if len(events) != emitters*each {
		t.Fatalf("retained %d events, want %d", len(events), emitters*each)
	}
	seen := make(map[uint64]bool, len(events))
	last := uint64(0)
	for _, ev := range events {
		if seen[ev.Seq] {
			t.Fatalf("duplicate Seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
		if ev.Seq <= last {
			t.Fatalf("Dump not sorted: %d after %d", ev.Seq, last)
		}
		last = ev.Seq
	}
}

// TestEventLine checks the one-line timeline rendering used by the
// fabric -failover dump.
func TestEventLine(t *testing.T) {
	ev := Event{Seq: 42, TimeNS: 12_345_000, Type: EventPromoteCommit, Node: "shard-3", TraceID: 7, Detail: "replica 0 promoted"}
	line := ev.Line(0)
	for _, want := range []string{"000042", "promote-commit", "shard-3", "[trace 7]", "replica 0 promoted"} {
		if !strings.Contains(line, want) {
			t.Fatalf("timeline line %q missing %q", line, want)
		}
	}
}

// TestStartRemote: a valid remote context continues the trace (same
// TraceID, parented on the remote span); the zero context degrades to a
// locally sampled root — the wire-extraction fallback for untraced or
// legacy frames.
func TestStartRemote(t *testing.T) {
	tel := New(Options{TraceSampleRate: 1, TraceBuffer: 64})
	tr := tel.Tracer()

	root := tr.StartRoot("route put")
	if root == nil {
		t.Fatal("full-rate tracer did not sample a root")
	}
	sc := root.Context()
	remote := tr.StartRemote(sc, "dispatch")
	if remote.TraceID != root.TraceID {
		t.Fatalf("remote span trace %d, want %d", remote.TraceID, root.TraceID)
	}
	if remote.ParentID != root.SpanID {
		t.Fatalf("remote span parent %d, want %d", remote.ParentID, root.SpanID)
	}
	if remote.SpanID == root.SpanID {
		t.Fatal("remote span reused the parent's SpanID")
	}

	fresh := tr.StartRemote(SpanContext{}, "dispatch")
	if fresh == nil {
		t.Fatal("zero context should fall back to a sampled root")
	}
	if fresh.ParentID != 0 || fresh.TraceID == root.TraceID {
		t.Fatalf("zero-context span = trace %d parent %d, want a fresh root", fresh.TraceID, fresh.ParentID)
	}

	var nilTracer *Tracer
	if sp := nilTracer.StartRemote(sc, "x"); sp != nil {
		t.Fatal("nil tracer returned a span")
	}
}

// TestFleetAggregation covers the fleet identity split: node metrics
// are private but republished shard-labeled under montsalvat_fabric_*
// on the fleet registry (histograms as _count/_sum plus quantile
// gauges), while the tracer and event journal are shared so one trace
// ID and one Seq order span every node.
func TestFleetAggregation(t *testing.T) {
	fleet := NewFleet(Options{TraceSampleRate: 1, TraceBuffer: 64, EventBuffer: 64})
	a, b := fleet.Node("shard-0"), fleet.Node("shard-1")

	a.Registry().Counter("montsalvat_serve_requests_total").Add(3)
	b.Registry().Counter("montsalvat_serve_requests_total").Add(5)
	h := a.Registry().Histogram("montsalvat_persist_ship_latency_ns")
	for i := 1; i <= 4; i++ {
		h.Observe(int64(i) * 1000)
	}

	snap := fleet.Telemetry().Registry().Snapshot()
	if got := snap.Counters[`montsalvat_fabric_serve_requests_total{shard="shard-0"}`]; got != 3 {
		t.Fatalf("shard-0 fleet counter = %d, want 3", got)
	}
	if got := snap.Counters[`montsalvat_fabric_serve_requests_total{shard="shard-1"}`]; got != 5 {
		t.Fatalf("shard-1 fleet counter = %d, want 5", got)
	}
	if got := snap.Counters[`montsalvat_fabric_persist_ship_latency_ns_count{shard="shard-0"}`]; got != 4 {
		t.Fatalf("fleet histogram count = %d, want 4", got)
	}
	if _, ok := snap.Gauges[`montsalvat_fabric_persist_ship_latency_ns_p50{shard="shard-0"}`]; !ok {
		t.Fatal("fleet snapshot missing republished p50 gauge")
	}
	// Node registries stay private: shard-1 never sees shard-0's counter.
	if got := b.Registry().Snapshot().Counters["montsalvat_serve_requests_total"]; got != 5 {
		t.Fatalf("shard-1 private counter = %d, want 5", got)
	}

	// Shared trace identity: a context minted on one node continues on
	// another with the same TraceID, visible in the fleet dump.
	sp := a.Tracer().StartRoot("hop")
	sc := sp.Context()
	rsp := b.Tracer().StartRemote(sc, "hop-remote")
	rsp.Finish(nil)
	sp.Finish(nil)
	found := 0
	for _, s := range fleet.Telemetry().Tracer().Dump() {
		if s.TraceID == sc.TraceID {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("fleet trace dump holds %d spans of the shared trace, want 2", found)
	}

	// Shared journal: emissions from both nodes interleave in one Seq order.
	a.Events().Emit(EventKill, "shard-0", 0, "a")
	b.Events().Emit(EventEpochBump, "shard-1", 0, "b")
	events := fleet.Telemetry().Events().Dump()
	if len(events) != 2 || events[0].Type != EventKill || events[1].Type != EventEpochBump {
		t.Fatalf("shared journal = %+v, want kill then epoch-bump", events)
	}
	if events[0].Seq >= events[1].Seq {
		t.Fatalf("journal Seq not monotonic across nodes: %d, %d", events[0].Seq, events[1].Seq)
	}

	// Nil fleet: the whole plane degrades to the disabled layer.
	var nf *Fleet
	if nf.Telemetry() != nil || nf.Node("x") != nil {
		t.Fatal("nil fleet must return nil bundles")
	}
}
