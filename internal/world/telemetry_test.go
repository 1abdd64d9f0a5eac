package world_test

import (
	"strings"
	"testing"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// kvTelemetryWorld builds a partitioned KV world with full-rate tracing.
func kvTelemetryWorld(t *testing.T, cfg simcfg.Config) (*world.World, *telemetry.Telemetry) {
	t.Helper()
	tel := telemetry.New(telemetry.Options{TraceSampleRate: 1, TraceBuffer: 2048})
	opts := world.DefaultOptions()
	opts.Cfg = cfg
	opts.Telemetry = tel
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), opts)
	if err != nil {
		t.Fatalf("NewPartitionedWorld: %v", err)
	}
	t.Cleanup(w.Close)
	return w, tel
}

func TestTelemetryMetricsAbsorbed(t *testing.T) {
	w, tel := kvTelemetryWorld(t, simcfg.Default())
	if _, err := w.RunMain(); err != nil {
		t.Fatalf("RunMain: %v", err)
	}
	if err := w.SweepOnce(w.Untrusted()); err != nil {
		t.Fatalf("SweepOnce: %v", err)
	}

	snap := tel.Registry().Snapshot()
	ds := w.DispatchStats()
	if got := snap.Counters[`montsalvat_boundary_calls_total{route="full"}`]; got != ds.FullCalls {
		t.Fatalf("full calls metric = %d, DispatchStats says %d", got, ds.FullCalls)
	}
	es := w.Enclave().Stats()
	if got := snap.Counters["montsalvat_sgx_ecalls_total"]; got != es.Ecalls {
		t.Fatalf("ecalls metric = %d, enclave says %d", got, es.Ecalls)
	}
	if snap.Counters["montsalvat_sgx_ocalls_total"] == 0 {
		t.Fatal("no ocalls absorbed (AuditLog.record should call out)")
	}
	if got := snap.Counters[`montsalvat_gc_sweeps_total{runtime="untrusted"}`]; got == 0 {
		t.Fatal("sweep counter not absorbed")
	}
	if snap.Gauges["montsalvat_sgx_tcs_cap"] == 0 {
		t.Fatal("TCS capacity gauge missing")
	}
	if snap.Gauges[`montsalvat_world_registry_size{runtime="trusted"}`] == 0 {
		t.Fatal("trusted registry gauge missing (mirrors exist after RunMain)")
	}
	hist := snap.Histograms["montsalvat_boundary_dispatch_ns"]
	if hist.Count == 0 || hist.P99 < hist.P50 {
		t.Fatalf("dispatch histogram malformed: %+v", hist)
	}
	if snap.Histograms["montsalvat_boundary_marshal_bytes"].Count == 0 {
		t.Fatal("marshal-bytes histogram empty")
	}
	if snap.Histograms["montsalvat_boundary_body_cycles"].Count == 0 {
		t.Fatal("body-cycles histogram empty")
	}
}

// TestTelemetryNestedOcallTrace pins the acceptance trace: a sampled
// ecall relay (KVStore.put) with a nested ocall child (AuditLog.record)
// sharing its trace id.
func TestTelemetryNestedOcallTrace(t *testing.T) {
	w, tel := kvTelemetryWorld(t, simcfg.Default())
	if _, err := w.RunMain(); err != nil {
		t.Fatalf("RunMain: %v", err)
	}

	var put, record *telemetry.Span
	spans := tel.Tracer().Dump()
	for i := range spans {
		sp := &spans[i]
		switch {
		case strings.Contains(sp.Name, "KVStore.relay$put"):
			put = sp
		case strings.Contains(sp.Name, "AuditLog.relay$record"):
			record = sp
		}
	}
	if put == nil || record == nil {
		t.Fatalf("missing spans: put=%v record=%v (of %d)", put != nil, record != nil, len(spans))
	}
	if put.Dir != "ecall" {
		t.Fatalf("put span dir = %q, want ecall", put.Dir)
	}
	if record.Dir != "ocall" {
		t.Fatalf("record span dir = %q, want ocall", record.Dir)
	}
	if put.Route == "" {
		t.Fatal("put span has no routing decision")
	}
	if put.MarshalBytes == 0 {
		t.Fatal("put span recorded no marshalled bytes")
	}
	// The dump is oldest-first and ring-bounded; the surviving put and
	// record spans need not be from the same put call, but every record
	// must be parented by some put of the same trace. Find a matched
	// pair to pin the chain shape.
	matched := false
	byID := make(map[uint64]telemetry.Span, len(spans))
	for _, sp := range spans {
		byID[sp.SpanID] = sp
	}
	for _, sp := range spans {
		if !strings.Contains(sp.Name, "AuditLog.relay$record") || sp.ParentID == 0 {
			continue
		}
		parent, ok := byID[sp.ParentID]
		if ok && parent.TraceID == sp.TraceID && strings.Contains(parent.Name, "KVStore.relay$put") {
			matched = true
			break
		}
	}
	if !matched {
		t.Fatal("no record span parented by a put span of the same trace")
	}
}

// TestTelemetryTraceThroughSwitchlessAndBatching exercises span
// propagation across pool worker goroutines and batched flush roots.
func TestTelemetryTraceThroughSwitchlessAndBatching(t *testing.T) {
	cfg := simcfg.Default()
	cfg.Switchless = true
	cfg.Batching = true
	w, tel := kvTelemetryWorld(t, cfg)
	if _, err := w.RunMain(); err != nil {
		t.Fatalf("RunMain: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	spans := tel.Tracer().Dump()
	var sawFlush, sawChildRecord bool
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "batch-flush") {
			sawFlush = true
			if sp.BatchSize == 0 {
				t.Fatalf("flush span without batch size: %+v", sp)
			}
		}
		if strings.Contains(sp.Name, "AuditLog.relay$record") && sp.ParentID != 0 {
			sawChildRecord = true
		}
	}
	if !sawFlush {
		t.Fatalf("no batch-flush span among %d spans", len(spans))
	}
	// With batching on, put relays ride in flush frames; their nested
	// record ocalls must still join the flush's trace.
	if !sawChildRecord {
		t.Fatal("no record span joined a parent trace under batching")
	}
	if tel.Registry().Snapshot().Histograms["montsalvat_boundary_batch_size"].Count == 0 {
		t.Fatal("batch-size histogram empty")
	}
}

// TestTelemetryDisabledIsInert pins the nil-layer contract the overhead
// guard relies on: a world with no telemetry takes the exact same
// simulated-cycle path.
func TestTelemetryDisabledIsInert(t *testing.T) {
	opts := world.DefaultOptions()
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), opts)
	if err != nil {
		t.Fatalf("NewPartitionedWorld: %v", err)
	}
	defer w.Close()
	if w.Telemetry() != nil {
		t.Fatal("telemetry must default to nil")
	}
	if _, err := w.RunMain(); err != nil {
		t.Fatalf("RunMain: %v", err)
	}
}

// TestFullTransitionSpanCarriesBodyCycles: the sampled span of a full
// transition records what the far side charged — here a known memory
// touch plus the relay's own small bookkeeping — and not the transition.
func TestFullTransitionSpanCarriesBodyCycles(t *testing.T) {
	var (
		w       *world.World
		touched int64
	)
	prog := classmodel.NewProgram()
	burner := classmodel.NewClass("Burner", classmodel.Trusted)
	for _, m := range []*classmodel.Method{
		{
			Name: classmodel.CtorName, Public: true,
			Body: func(classmodel.Env, wire.Value, []wire.Value) (wire.Value, error) { return wire.Null(), nil },
		},
		{
			Name: "burn", Public: true, Returns: wire.KindInt,
			Body: func(env classmodel.Env, _ wire.Value, _ []wire.Value) (wire.Value, error) {
				start := w.Clock().Total()
				env.MemTouch(1 << 20)
				touched = w.Clock().Total() - start
				return wire.Int(1), nil
			},
		},
	} {
		if err := burner.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	mainC := classmodel.NewClass("BurnMain", classmodel.Untrusted)
	if err := mainC.AddMethod(&classmodel.Method{
		Name: classmodel.MainMethodName, Static: true, Public: true,
		Body: func(env classmodel.Env, _ wire.Value, _ []wire.Value) (wire.Value, error) {
			b, err := env.New("Burner")
			if err != nil {
				return wire.Value{}, err
			}
			return env.Call(b, "burn")
		},
		Allocates: []string{"Burner"},
		Calls:     []classmodel.MethodRef{{Class: "Burner", Method: "burn"}},
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*classmodel.Class{burner, mainC} {
		if err := prog.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	prog.MainClass = "BurnMain"

	tel := telemetry.New(telemetry.Options{TraceSampleRate: 1, TraceBuffer: 64})
	opts := world.DefaultOptions()
	opts.Telemetry = tel
	var err error
	if w, _, err = core.NewPartitionedWorld(prog, opts); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.RunMain(); err != nil {
		t.Fatal(err)
	}
	var burn *telemetry.Span
	for _, sp := range tel.Tracer().Dump() {
		if strings.Contains(sp.Name, "Burner.relay$burn") {
			burn = &sp
		}
	}
	if burn == nil || burn.Route != "full" {
		t.Fatalf("no full-route span of the burn relay: %+v", burn)
	}
	transition := opts.Cfg.TransitionCycles(true)
	if touched == 0 || burn.BodyCycles < touched || burn.BodyCycles >= touched+transition {
		t.Fatalf("span body cycles %d, want the body's %d touch cycles plus less than a transition (%d)", burn.BodyCycles, touched, transition)
	}
}
