package world_test

import (
	"errors"
	"testing"
	"time"

	"montsalvat/internal/boundary"
	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/heap"
	"montsalvat/internal/registry"
	"montsalvat/internal/sgx"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// TestLaneCrossingCost runs one op stream through plain World.Exec and
// on a lane, with batching off and on: each crossing into the enclave —
// a call, or a batch flush the lane frame causes — costs exactly
// EcallCycles − SwitchlessCallCycles less on the lane, is a hand-off
// rather than an ecall, and everything else the ledger counts — ocalls,
// MEE bytes, paging, the calls batched — is the same.
func TestLaneCrossingCost(t *testing.T) {
	for _, batching := range []bool{false, true} {
		t.Run(map[bool]string{false: "unbatched", true: "batched"}[batching], func(t *testing.T) {
			testLaneCrossingCost(t, batching)
		})
	}
}

func testLaneCrossingCost(t *testing.T, batching bool) {
	run := func(onLane bool) (ledger, world.DispatchStats) {
		opts := world.DefaultOptions()
		opts.Cfg.EPCBytes = 16 * 4096
		opts.Cfg.Batching = batching
		opts.TrustedHeap = heap.Config{InitialSemi: 4 << 20, MaxSemi: 256 << 20}
		w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		var lane *world.Lane
		if onLane {
			lanes, err := w.OpenLanes(1)
			if err != nil {
				t.Fatal(err)
			}
			lane = lanes[0]
		}
		before, ds := ledgerOf(w), w.DispatchStats()
		if err := sizedPutGet(w, 2, lane); err != nil {
			t.Fatal(err)
		}
		after, da := ledgerOf(w), w.DispatchStats()
		return ledger{
				Cycles: after.Cycles - before.Cycles, Ecalls: after.Ecalls - before.Ecalls,
				Switchless: after.Switchless - before.Switchless, Ocalls: after.Ocalls - before.Ocalls,
				PageFaults: after.PageFaults - before.PageFaults, MEECopiedBytes: after.MEECopiedBytes - before.MEECopiedBytes,
			}, world.DispatchStats{
				FullCalls: da.FullCalls - ds.FullCalls, SwitchlessCalls: da.SwitchlessCalls - ds.SwitchlessCalls,
				BatchedCalls: da.BatchedCalls - ds.BatchedCalls,
			}
	}
	plain, plainRoutes := run(false)
	onLane, laneRoutes := run(true)
	// Full crossings go both ways; only those into the enclave ride a
	// lane, the nested ocalls cross as before.
	crossings := plain.Ecalls
	if crossings == 0 || plainRoutes.FullCalls != crossings+plain.Ocalls || plainRoutes.SwitchlessCalls != 0 {
		t.Fatalf("plain stream: routes %+v, ledger %+v", plainRoutes, plain)
	}
	if laneRoutes.SwitchlessCalls != crossings || laneRoutes.FullCalls != onLane.Ocalls || onLane.Ecalls != 0 || onLane.Switchless != crossings {
		t.Fatalf("lane stream: routes %+v, ledger %+v; want all %d ecalls handed off", laneRoutes, onLane, crossings)
	}
	if batching && (plainRoutes.BatchedCalls == 0 || laneRoutes.BatchedCalls != plainRoutes.BatchedCalls) {
		t.Fatalf("batched calls: %d plain, %d on the lane; want the same, above 0", plainRoutes.BatchedCalls, laneRoutes.BatchedCalls)
	}
	saved := int64(crossings) * (simcfg.EcallCycles - simcfg.SwitchlessCallCycles)
	if d := plain.Cycles - onLane.Cycles; d != saved {
		t.Fatalf("lane saves %d cycles over %d crossings, want exactly %d", d, crossings, saved)
	}
	onLane.Cycles, onLane.Ecalls, onLane.Switchless = plain.Cycles, plain.Ecalls, plain.Switchless
	checkLedger(t, onLane, plain)
}

// TestLanesKeepOcallGuard: an open lane — or an idle ring consumer —
// holds its TCS slot but is not executing enclave code, so the enclave
// still refuses an ocall from outside and World.Flush still enters the
// enclave to flush the trusted runtime's queue.
func TestLanesKeepOcallGuard(t *testing.T) {
	opts := world.DefaultOptions()
	opts.Cfg.Batching = true
	opts.Cfg.Rings = true
	opts.Cfg.RingWorkers = 1
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.OpenLanes(2); err != nil {
		t.Fatal(err)
	}
	e := w.Enclave()
	for e.TCSInUse() != 2+opts.Cfg.RingWorkers {
		time.Sleep(time.Millisecond) // ring consumers enter asynchronously
	}
	if e.InEnclave() {
		t.Fatal("open lanes count as executing enclave code")
	}
	if err := e.Ocall(1, func() error { return nil }); !errors.Is(err, sgx.ErrOcallOutside) {
		t.Fatalf("ocall from outside with lanes open: %v, want ErrOcallOutside", err)
	}
	// A release of a hash nobody exported, queued on the trusted side:
	// the flush must enter the enclave to ocall it out.
	release := wire.AppendCallHeader([]byte{0}, "", "<gc-release>", 1<<40, 0)
	if err := w.Trusted().Enqueue(boundary.Entry{Req: release}); err != nil {
		t.Fatal(err)
	}
	before := e.Stats().Ecalls
	if err := w.Flush(); !errors.Is(err, registry.ErrUnknownHash) {
		t.Fatalf("flush of a forged release: %v, want ErrUnknownHash", err)
	}
	if got := e.Stats().Ecalls - before; got != 1 {
		t.Fatalf("World.Flush made %d ecalls with lanes open, want the 1 that enters", got)
	}
}

// relayChainProgram defines a trusted Gate whose in(n) ocalls a new
// Up's out(n) while n > 0, and an untrusted Up whose out(n) calls a new
// Gate's in(n-1): on a lane, in(2) is an ocall→ecall→ocall→ecall chain
// under one hand-off.
// Gate.hold signals entered and blocks until release is closed.
func relayChainProgram(t *testing.T, entered chan<- struct{}, release <-chan struct{}) *classmodel.Program {
	t.Helper()
	n := []classmodel.Param{{Name: "n", Kind: wire.KindInt}}
	ctor := func() *classmodel.Method {
		return &classmodel.Method{Name: classmodel.CtorName, Public: true,
			Body: func(classmodel.Env, wire.Value, []wire.Value) (wire.Value, error) { return wire.Null(), nil }}
	}
	// hop calls method on a new class object with n, or answers 0 at 0.
	hop := func(class, method string, step int64) classmodel.Body {
		return func(env classmodel.Env, _ wire.Value, args []wire.Value) (wire.Value, error) {
			k, _ := args[0].AsInt()
			if k == 0 {
				return wire.Int(0), nil
			}
			o, err := env.New(class)
			if err != nil {
				return wire.Value{}, err
			}
			return env.Call(o, method, wire.Int(k-step))
		}
	}
	gate := classmodel.NewClass("Gate", classmodel.Trusted)
	up := classmodel.NewClass("Up", classmodel.Untrusted)
	app := classmodel.NewClass("App", classmodel.Untrusted)
	p := classmodel.NewProgram()
	for _, err := range []error{
		gate.AddMethod(ctor()),
		gate.AddMethod(&classmodel.Method{Name: "in", Public: true, Params: n, Returns: wire.KindInt,
			Allocates: []string{"Up"}, Calls: []classmodel.MethodRef{{Class: "Up", Method: "out"}},
			Body: hop("Up", "out", 0)}),
		gate.AddMethod(&classmodel.Method{Name: "hold", Public: true, Returns: wire.KindInt,
			Body: func(classmodel.Env, wire.Value, []wire.Value) (wire.Value, error) {
				entered <- struct{}{}
				<-release
				return wire.Int(1), nil
			}}),
		up.AddMethod(ctor()),
		up.AddMethod(&classmodel.Method{Name: "out", Public: true, Params: n, Returns: wire.KindInt,
			Allocates: []string{"Gate"}, Calls: []classmodel.MethodRef{{Class: "Gate", Method: "in"}},
			Body: hop("Gate", "in", 1)}),
		app.AddMethod(&classmodel.Method{Name: classmodel.MainMethodName, Static: true, Public: true,
			Allocates: []string{"Gate"},
			Calls:     []classmodel.MethodRef{{Class: "Gate", Method: "in"}, {Class: "Gate", Method: "hold"}},
			Body:      func(classmodel.Env, wire.Value, []wire.Value) (wire.Value, error) { return wire.Null(), nil }}),
		p.AddClass(gate), p.AddClass(up), p.AddClass(app),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	p.MainClass = "App"
	return p
}

// TestLaneRelayChainNeedsNoSlot: with every lane busy and only the
// spare TCS slot free, a call on a lane whose trusted code ocalls and is
// called back into the enclave twice (ocall→ecall→ocall→ecall) finishes:
// the re-entries are handed to the same lane and take no slot, where two
// nested ecalls would wait for a second free slot forever.
func TestLaneRelayChainNeedsNoSlot(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	opts := world.DefaultOptions()
	opts.NumTCS = 4
	opts.GCHelperInterval = time.Hour // the helper holds its slot and never sweeps
	w, _, err := core.NewPartitionedWorld(relayChainProgram(t, entered, release), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	defer w.StopGCHelpers()
	w.StartGCHelpers()
	lanes, err := w.OpenLanes(opts.NumTCS)
	if err != nil || len(lanes) != 2 {
		t.Fatalf("OpenLanes = %d lanes, %v; want 4 slots - the helper's - the spare", len(lanes), err)
	}
	held := make(chan error, 1)
	go func() {
		held <- w.ExecSpan(false, nil, lanes[1], func(env classmodel.Env) error {
			g, err := env.New("Gate")
			if err == nil {
				_, err = env.Call(g, "hold")
			}
			return err
		})
	}()
	<-entered
	for w.Enclave().TCSInUse() != opts.NumTCS-1 {
		time.Sleep(time.Millisecond) // the helper's ecall enters asynchronously
	}

	before := w.Enclave().Stats()
	chain := make(chan error, 1)
	go func() {
		chain <- w.ExecSpan(false, nil, lanes[0], func(env classmodel.Env) error {
			g, err := env.New("Gate")
			if err != nil {
				return err
			}
			_, err = env.Call(g, "in", wire.Int(2))
			return err
		})
	}()
	select {
	case err := <-chain:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a relay chain on a lane waited for a TCS slot")
	}
	// Gate's ctor and in(2), then per hop Up's ctor and out ocalled and
	// Gate's ctor and in called back: 6 hand-offs, 4 ocalls, no ecall.
	after := w.Enclave().Stats()
	if d := after.SwitchlessEcalls - before.SwitchlessEcalls; d != 6 {
		t.Errorf("%d hand-offs, want 6", d)
	}
	if d := after.Ocalls - before.Ocalls; d != 4 {
		t.Errorf("%d ocalls, want 4", d)
	}
	if d := after.Ecalls - before.Ecalls; d != 0 {
		t.Errorf("%d ecalls, want 0", d)
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

// TestLaneBudget: lanes never take the ring consumers' slots, the
// trusted GC helper's or the spare one, however many are asked for.
func TestLaneBudget(t *testing.T) {
	opts := world.DefaultOptions()
	opts.NumTCS = 8
	opts.Cfg.Rings = true
	opts.Cfg.RingWorkers = 2
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	first, err := w.OpenLanes(3)
	if err != nil || len(first) != 3 {
		t.Fatalf("OpenLanes(3) = %d lanes, %v", len(first), err)
	}
	// 8 slots - 2 ring consumers - the helper - the spare - 3 open.
	more, err := w.OpenLanes(100)
	if err != nil || len(more) != 1 {
		t.Fatalf("OpenLanes(100) = %d lanes, %v; want the 1 left", len(more), err)
	}
	if none, err := w.OpenLanes(1); err != nil || len(none) != 0 {
		t.Fatalf("OpenLanes past the budget = %d lanes, %v", len(none), err)
	}
	more[0].Close()
	if again, err := w.OpenLanes(1); err != nil || len(again) != 1 {
		t.Fatalf("OpenLanes after a Close = %d lanes, %v", len(again), err)
	}
}

// TestLaneLifecycle: Kill releases every lane's slot and Restart
// re-enters each open one on the new enclave; a lane refuses work
// typed — never hangs — while its world is killed and once closed.
func TestLaneLifecycle(t *testing.T) {
	w := goldenWorld(t, 16, heap.Config{InitialSemi: 1 << 20, MaxSemi: 256 << 20})
	lanes, err := w.OpenLanes(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Enclave().TCSInUse(); got != 3 {
		t.Fatalf("3 lanes hold %d slots", got)
	}
	nop := func(classmodel.Env) error { return nil }
	old := w.Enclave()
	w.Kill()
	if got := old.TCSInUse(); got != 0 {
		t.Fatalf("killed enclave: %d slots held", got)
	}
	if err := w.ExecSpan(false, nil, lanes[0], nop); !errors.Is(err, world.ErrWrongRuntime) {
		t.Fatalf("lane on a killed world: %v, want ErrWrongRuntime", err)
	}
	if _, err := w.OpenLanes(1); !errors.Is(err, world.ErrWrongRuntime) {
		t.Fatalf("OpenLanes on a killed world: %v", err)
	}
	lanes[2].Close()
	if err := w.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := w.Enclave().TCSInUse(); got != 2 {
		t.Fatalf("after Restart the 2 open lanes hold %d slots", got)
	}
	if err := sizedPutGet(w, 1, lanes[0]); err != nil {
		t.Fatalf("lane after Restart: %v", err)
	}
	if s := w.Enclave().Stats(); s.SwitchlessEcalls == 0 {
		t.Fatalf("no hand-off on the restarted enclave: %+v", s)
	}
	if err := w.ExecSpan(false, nil, lanes[2], nop); !errors.Is(err, world.ErrLaneClosed) {
		t.Fatalf("closed lane: %v, want ErrLaneClosed", err)
	}
	lanes[0].Close()
	lanes[1].Close()
	lanes[1].Close()
	if got := w.Enclave().TCSInUse(); got != 0 {
		t.Fatalf("after closing every lane %d slots held", got)
	}
}
