package montsalvat

// Benchmarks regenerating the paper's evaluation. One benchmark per
// table/figure (§6) runs the corresponding experiment of internal/bench
// at reduced scale. Its ns/op is the simulator's host time; the
// simulated platform's cost is the cycles/op metric, the experiment's
// cycle ledger (Series.Cycles) summed over every row. Experiments whose
// values are ledger figures already (Figs. 3-4 and 5b, the ablations)
// record no separate ledger and report no cycles/op. The substrate
// benchmarks below measure the primitive costs the figures are built
// from.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// and regenerate the full-scale paper tables with:
//
//	go run ./cmd/montsalvat-bench

import (
	"fmt"
	"testing"

	"montsalvat/internal/bench"
	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/cycles"
	"montsalvat/internal/demo"
	"montsalvat/internal/fabric"
	"montsalvat/internal/heap"
	"montsalvat/internal/mee"
	"montsalvat/internal/sgx"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// benchExperiment runs one paper experiment end to end per iteration and
// reports the cycles its table's ledger charged per run, where the table
// records one.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := bench.Options{Quick: true}
	var (
		charged int64
		ledger  bool
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tab.Rows {
			ledger = ledger || row.Cycles != nil
			for _, c := range row.Cycles {
				charged += c
			}
		}
	}
	if ledger {
		b.ReportMetric(float64(charged)/float64(b.N), "cycles/op")
	}
}

// One benchmark per paper table/figure.

func BenchmarkFig3ProxyCreation(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFig4aRMI(b *testing.B)           { benchExperiment(b, "fig4a") }
func BenchmarkFig4bSerialization(b *testing.B) { benchExperiment(b, "fig4b") }
func BenchmarkFig5aGC(b *testing.B)            { benchExperiment(b, "fig5a") }
func BenchmarkFig5bGCConsistency(b *testing.B) { benchExperiment(b, "fig5b") }
func BenchmarkFig6Synthetic(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig7PalDB(b *testing.B)          { benchExperiment(b, "fig7") }
func BenchmarkFig9GraphChi(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig10PalDBvsJVM(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11GraphChivsJVM(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12SPECjvm(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkTable1Ratios(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkAblationSwitchless(b *testing.B) { benchExperiment(b, "ablation-switchless") }
func BenchmarkAblationDispatch(b *testing.B)   { benchExperiment(b, "ablation-dispatch") }
func BenchmarkAblationTCB(b *testing.B)        { benchExperiment(b, "ablation-tcb") }
func BenchmarkAblationTransition(b *testing.B) { benchExperiment(b, "ablation-transition") }

// Substrate benchmarks: the primitive costs underneath the figures.

// BenchmarkMEELine measures one cache-line encrypt+decrypt round trip —
// the unit of all enclave memory traffic — as a run of one through the
// MEE kernel.
func BenchmarkMEELine(b *testing.B) {
	eng, err := mee.New()
	if err != nil {
		b.Fatal(err)
	}
	var s mee.Scratch
	var line [mee.LineBytes]byte
	ct := make([]byte, mee.LineBytes)
	out := make([]byte, mee.LineBytes)
	version := make([]uint64, 1)
	tag := make([]mee.Tag, 1)
	b.SetBytes(mee.LineBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		version[0] = uint64(i)
		if err := eng.SealLines(&s, ct, line[:], uint64(i), version, tag); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.DecryptLines(&s, out, ct, uint64(i), version, tag); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEcallTransition measures the host cost of one enclave round
// trip (pure dispatch; the charged simcfg.EcallCycles take no host time).
func BenchmarkEcallTransition(b *testing.B) {
	clk := cycles.New(simcfg.CPUHz)
	e, err := sgx.Create(simcfg.Default(), clk, 4)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.AddPages([]byte("bench image")); err != nil {
		b.Fatal(err)
	}
	signer, err := sgx.DefaultSigner()
	if err != nil {
		b.Fatal(err)
	}
	ss, err := signer.Sign(e.Measurement())
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Init(ss); err != nil {
		b.Fatal(err)
	}
	noop := func() error { return nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Ecall(1, noop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeapAllocPlain and BenchmarkHeapAllocEPC compare allocation on
// the untrusted and enclave heaps.
func BenchmarkHeapAllocPlain(b *testing.B) {
	h, err := heap.NewPlain(heap.Config{InitialSemi: 64 << 20, MaxSemi: 512 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Alloc(1, 1, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeapAllocEPC(b *testing.B) {
	clk := cycles.New(simcfg.CPUHz)
	e, err := sgx.Create(simcfg.Default(), clk, 4)
	if err != nil {
		b.Fatal(err)
	}
	h, err := heap.New(heap.Config{InitialSemi: 64 << 20, MaxSemi: 512 << 20}, func(size int) (heap.Backend, error) {
		return e.NewMemory(size)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Alloc(1, 1, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGCPlain and BenchmarkGCEPC measure one stop-and-copy cycle
// over 10k live objects, outside and inside the enclave (Fig. 5a's
// primitive).
func benchmarkGC(b *testing.B, inEnclave bool) {
	b.Helper()
	var (
		h   *heap.Heap
		err error
	)
	cfg := heap.Config{InitialSemi: 16 << 20, MaxSemi: 64 << 20}
	if inEnclave {
		clk := cycles.New(simcfg.CPUHz)
		e, cerr := sgx.Create(simcfg.Default(), clk, 4)
		if cerr != nil {
			b.Fatal(cerr)
		}
		h, err = heap.New(cfg, func(size int) (heap.Backend, error) {
			return e.NewMemory(size)
		})
	} else {
		h, err = heap.NewPlain(cfg)
	}
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		addr, err := h.Alloc(1, 0, 40)
		if err != nil {
			b.Fatal(err)
		}
		o, err := h.View(addr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.NewHandle(o, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Collect(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGCPlain(b *testing.B) { benchmarkGC(b, false) }
func BenchmarkGCEPC(b *testing.B)   { benchmarkGC(b, true) }

// BenchmarkWireRoundTrip measures serialization of a typical relay
// argument vector.
func BenchmarkWireRoundTrip(b *testing.B) {
	args := []wire.Value{
		wire.Int(42),
		wire.Str("a sixteen-byte s"),
		wire.List(wire.Int(1), wire.Str("two"), wire.Ref("Account", 7)),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := wire.MarshalList(args)
		if _, err := wire.UnmarshalList(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBankEndToEnd runs the complete Listing 1 application —
// pipeline, enclave creation, execution — per iteration.
func BenchmarkBankEndToEnd(b *testing.B) {
	prog := demo.MustBankProgram()
	// The process-wide author's key is generated outside the timed loop.
	if _, err := sgx.DefaultSigner(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _, err := core.NewPartitionedWorld(prog, world.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.RunMain(); err != nil {
			b.Fatal(err)
		}
		w.Close()
	}
}

// runKVCycles runs the secure KV demo to completion under the given
// telemetry layer and platform config and returns the charged
// simulated-cycle total.
func runKVCycles(tb testing.TB, tel *telemetry.Telemetry, cfg simcfg.Config) int64 {
	tb.Helper()
	opts := world.DefaultOptions()
	opts.Cfg = cfg
	opts.Telemetry = tel
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	defer w.Close()
	if _, err := w.RunMain(); err != nil {
		tb.Fatal(err)
	}
	return w.Clock().Total()
}

// runFabricCycles boots a small fabric under the given fleet, drives a
// fixed sequential write/read load through the router, and returns the
// summed charged cycles of the primaries. The load is single-client and
// the shipping path synchronous, so the total is deterministic.
func runFabricCycles(tb testing.TB, fleet *telemetry.Fleet) int64 {
	tb.Helper()
	f, err := fabric.New(fabric.Options{Shards: 2, Replicas: 1, Fleet: fleet})
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	client := f.Client(fabric.RouterConfig{})
	defer client.Close()
	for i := 0; i < 24; i++ {
		k := fmt.Sprintf("neutral:%04d", i)
		if err := client.Put(k, "v"); err != nil {
			tb.Fatal(err)
		}
		if _, _, err := client.Get(k); err != nil {
			tb.Fatal(err)
		}
	}
	var total int64
	for _, c := range f.ShardBusyCycles() {
		total += c
	}
	return total
}

// TestTelemetryCycleNeutral is the deterministic half of the telemetry
// overhead guard: instrumentation observes the simulated platform but
// never charges it, so the cycle ledger of a fully instrumented run
// must equal the uninstrumented run exactly — on the frame RMI path,
// on the zero-copy ring path, and across the sharded fabric (sessions,
// shipping, the event journal). Wall-clock overhead (the
// <2%-when-disabled budget) is measured with the benchmarks below, not
// asserted in CI where machine noise would dominate.
func TestTelemetryCycleNeutral(t *testing.T) {
	fullTel := func() *telemetry.Telemetry {
		return telemetry.New(telemetry.Options{TraceSampleRate: 1, TraceBuffer: 1024, EventBuffer: 1024})
	}

	off := runKVCycles(t, nil, simcfg.Default())
	on := runKVCycles(t, fullTel(), simcfg.Default())
	if off != on {
		t.Fatalf("telemetry changed the simulated-cycle ledger: off=%d on=%d", off, on)
	}
	if off == 0 {
		t.Fatal("KV demo charged no cycles")
	}

	ringCfg := simcfg.Default()
	ringCfg.Rings = true
	ringOff, ringOn := runKVCycles(t, nil, ringCfg), runKVCycles(t, fullTel(), ringCfg)
	if ringOff != ringOn {
		t.Fatalf("telemetry changed the ring-path cycle ledger: off=%d on=%d", ringOff, ringOn)
	}
	if ringOff == 0 {
		t.Fatal("ring-path KV demo charged no cycles")
	}

	fabOff := runFabricCycles(t, nil)
	fabOn := runFabricCycles(t, telemetry.NewFleet(telemetry.Options{TraceSampleRate: 1, TraceBuffer: 4096, EventBuffer: 4096}))
	if fabOff != fabOn {
		t.Fatalf("fleet observability changed the fabric cycle ledger: off=%d on=%d", fabOff, fabOn)
	}
	if fabOff == 0 {
		t.Fatal("fabric load charged no cycles")
	}
}

// BenchmarkRMITelemetryOff / On / RateZero compare the proxy-call hot
// path without telemetry, with full-rate tracing, and with metrics but
// no tracing. Compare Off vs RateZero for the disabled-overhead budget.
func benchmarkRMITelemetry(b *testing.B, tel *telemetry.Telemetry) {
	b.Helper()
	opts := world.DefaultOptions()
	opts.Telemetry = tel
	w, _, err := core.NewPartitionedWorld(demo.MustBankProgram(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	err = w.Exec(false, func(env classmodel.Env) error {
		acct, err := env.New(demo.Account, wire.Str("bench"), wire.Int(0))
		if err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := env.Call(acct, "updateBalance", wire.Int(1)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRMITelemetryOff(b *testing.B) { benchmarkRMITelemetry(b, nil) }
func BenchmarkRMITelemetryOn(b *testing.B) {
	benchmarkRMITelemetry(b, telemetry.New(telemetry.Options{TraceSampleRate: 1, TraceBuffer: 1024}))
}
func BenchmarkRMITelemetryRateZero(b *testing.B) {
	benchmarkRMITelemetry(b, telemetry.New(telemetry.Options{TraceSampleRate: 0}))
}

// BenchmarkRMIRoundTrip measures one proxy method invocation crossing
// into the enclave and back.
func BenchmarkRMIRoundTrip(b *testing.B) {
	w, _, err := core.NewPartitionedWorld(demo.MustBankProgram(), world.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	err = w.Exec(false, func(env classmodel.Env) error {
		acct, err := env.New(demo.Account, wire.Str("bench"), wire.Int(0))
		if err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := env.Call(acct, "updateBalance", wire.Int(1)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
