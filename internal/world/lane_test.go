package world_test

import (
	"errors"
	"fmt"
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
// EcallCycles − SwitchlessCallCycles less on the lane, each nested
// ocall exactly OcallCycles − SwitchlessCallCycles less, both are
// hand-offs rather than transitions, and everything else the ledger
// counts — MEE bytes, paging, the calls batched — is the same.
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
		return laneDelta(t, w, func() error { return sizedPutGet(w, 2, lane) })
	}
	plain, plainRoutes := run(false)
	onLane, laneRoutes := run(true)
	// Full crossings go both ways, and on a lane both ways are handed
	// off: the crossings into the enclave and the ocalls nested in them.
	in, out := plain.Ecalls, plain.Ocalls
	if in == 0 || out == 0 || plainRoutes.FullCalls != in+out || plainRoutes.SwitchlessCalls != 0 {
		t.Fatalf("plain stream: routes %+v, ledger %+v", plainRoutes, plain)
	}
	if laneRoutes.SwitchlessCalls != in+out || laneRoutes.FullCalls != 0 || onLane.Ecalls != 0 || onLane.Ocalls != 0 ||
		onLane.SwitchlessEcalls != in || onLane.SwitchlessOcalls != out {
		t.Fatalf("lane stream: routes %+v, ledger %+v; want all %d ecalls and %d ocalls handed off", laneRoutes, onLane, in, out)
	}
	if batching && (plainRoutes.BatchedCalls == 0 || laneRoutes.BatchedCalls != plainRoutes.BatchedCalls) {
		t.Fatalf("batched calls: %d plain, %d on the lane; want the same, above 0", plainRoutes.BatchedCalls, laneRoutes.BatchedCalls)
	}
	saved := int64(in)*(simcfg.EcallCycles-simcfg.SwitchlessCallCycles) + int64(out)*(simcfg.OcallCycles-simcfg.SwitchlessCallCycles)
	if d := plain.Cycles - onLane.Cycles; d != saved {
		t.Fatalf("lane saves %d cycles over %d crossings in and %d out, want exactly %d", d, in, out, saved)
	}
	onLane.Cycles, onLane.Ecalls, onLane.SwitchlessEcalls = plain.Cycles, plain.Ecalls, plain.SwitchlessEcalls
	onLane.Ocalls, onLane.SwitchlessOcalls = plain.Ocalls, plain.SwitchlessOcalls
	checkLedger(t, onLane, plain)
}

// laneDelta runs fn on w and returns what it charged: the ledger fields
// and the routes the lane tests compare.
func laneDelta(t *testing.T, w *world.World, fn func() error) (ledger, world.DispatchStats) {
	t.Helper()
	before, ds := ledgerOf(w), w.DispatchStats()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	after, da := ledgerOf(w), w.DispatchStats()
	return ledger{
			Cycles:           after.Cycles - before.Cycles,
			Ecalls:           after.Ecalls - before.Ecalls,
			SwitchlessEcalls: after.SwitchlessEcalls - before.SwitchlessEcalls,
			Ocalls:           after.Ocalls - before.Ocalls,
			SwitchlessOcalls: after.SwitchlessOcalls - before.SwitchlessOcalls,
			PageFaults:       after.PageFaults - before.PageFaults,
			MEECopiedBytes:   after.MEECopiedBytes - before.MEECopiedBytes,
		}, world.DispatchStats{
			FullCalls:       da.FullCalls - ds.FullCalls,
			SwitchlessCalls: da.SwitchlessCalls - ds.SwitchlessCalls,
			BatchedCalls:    da.BatchedCalls - ds.BatchedCalls,
		}
}

// TestLanesKeepOcallGuard: an open lane — or an idle ecall ring —
// holds its TCS slot but is not executing enclave code, so the enclave
// still refuses an ocall from outside and World.Flush still enters the
// enclave to flush the trusted runtime's queue. Started GC helpers hold
// no enclave thread either, even after a trusted sweep.
func TestLanesKeepOcallGuard(t *testing.T) {
	for _, helpers := range []bool{false, true} {
		t.Run(fmt.Sprintf("helpers=%v", helpers), func(t *testing.T) {
			opts := world.DefaultOptions()
			opts.Cfg.Batching = true
			opts.Cfg.Rings = true
			opts.Cfg.RingWorkers = 1
			w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if helpers {
				w.StartGCHelpers()
			}
			if _, err := w.OpenLanes(2); err != nil {
				t.Fatal(err)
			}
			e := w.Enclave()
			if n := e.TCSInUse(); n != 2+opts.Cfg.RingWorkers {
				t.Fatalf("%d TCS slots held, want 2 lanes + %d ecall rings", n, opts.Cfg.RingWorkers)
			}
			if helpers {
				// A trusted helper step enters and leaves: the KVStore
				// constructor leaves an untrusted KVAuditLog mirror
				// (once its queued constructor call is flushed) that
				// only the trusted sweep after the store's death
				// releases.
				if err := w.Exec(false, func(env classmodel.Env) error {
					_, err := env.New(demo.KVStoreCls)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				if n := w.Untrusted().Registry().Size(); n != 1 {
					t.Fatalf("%d untrusted mirrors before the sweeps, want the audit log's", n)
				}
				for _, rt := range []*world.Runtime{w.Untrusted(), w.Trusted()} {
					if err := rt.Collect(); err != nil {
						t.Fatal(err)
					}
				}
				if n := w.Untrusted().Registry().Size(); n != 0 {
					t.Fatalf("%d untrusted mirrors left after the trusted helper step", n)
				}
			}
			if e.InEnclave() {
				t.Fatal("open lanes count as executing enclave code")
			}
			if err := e.Ocall(1, func() error { return nil }); !errors.Is(err, sgx.ErrOcallOutside) {
				t.Fatalf("ocall from outside with lanes open: %v, want ErrOcallOutside", err)
			}
			// A release of a hash nobody exported, queued on the trusted
			// side: the flush must enter the enclave to ocall it out.
			release := wire.AppendCallHeader([]byte{0}, "", "<gc-release>", 1<<40, 0)
			if err := w.Trusted().Enqueue(boundary.Entry{Req: release}); err != nil {
				t.Fatal(err)
			}
			before := e.Stats()
			if err := w.Flush(); !errors.Is(err, registry.ErrUnknownHash) {
				t.Fatalf("flush of a forged release: %v, want ErrUnknownHash", err)
			}
			after := e.Stats()
			if got := after.Ecalls - before.Ecalls; got != 1 {
				t.Fatalf("World.Flush made %d ecalls with lanes open, want the 1 that enters", got)
			}
			if got := after.EcallsByID[world.IDExec] - before.EcallsByID[world.IDExec]; got != 1 {
				t.Fatalf("World.Flush entered through %d harness ecalls, want 1", got)
			}
		})
	}
}

// TestLanelessOcallsStayFull: with lanes open, trusted Exec's frame
// carries no lane, so its ocalls still exit the enclave in full: every
// one counts in Ocalls, none is handed off, and the ledger is that of a
// world without lanes. The same run handed to a lane crosses neither
// way in full.
func TestLanelessOcallsStayFull(t *testing.T) {
	audit := func(env classmodel.Env) error {
		log, err := env.New(demo.KVAuditLog)
		if err == nil {
			_, err = env.Call(log, "record", wire.Str("k"))
		}
		return err
	}
	run := func(lanes int, onLane bool) (ledger, world.DispatchStats) {
		w := goldenWorld(t, 16, heap.Config{InitialSemi: 1 << 20, MaxSemi: 256 << 20})
		open, err := w.OpenLanes(lanes)
		if err != nil || len(open) != lanes {
			t.Fatalf("OpenLanes(%d) = %d lanes, %v", lanes, len(open), err)
		}
		var lane *world.Lane
		if onLane {
			lane = open[0]
		}
		return laneDelta(t, w, func() error { return w.ExecSpan(true, nil, lane, audit) })
	}
	plain, plainRoutes := run(0, false)
	offLane, offLaneRoutes := run(2, false)
	if plain.Ecalls != 1 || plain.Ocalls != 2 || plain.SwitchlessOcalls != 0 || plainRoutes.FullCalls != 2 {
		t.Fatalf("trusted Exec: routes %+v, ledger %+v; want 1 ecall, 2 full ocalls", plainRoutes, plain)
	}
	if offLaneRoutes != plainRoutes {
		t.Fatalf("trusted Exec beside open lanes: routes %+v, want %+v", offLaneRoutes, plainRoutes)
	}
	checkLedger(t, offLane, plain)

	onLane, laneRoutes := run(2, true)
	if onLane.Ecalls != 0 || onLane.Ocalls != 0 || onLane.SwitchlessEcalls != 1 || onLane.SwitchlessOcalls != 2 ||
		laneRoutes.FullCalls != 0 || laneRoutes.SwitchlessCalls != 2 {
		t.Fatalf("trusted ExecSpan on a lane: routes %+v, ledger %+v; want 1 hand-off in, 2 out", laneRoutes, onLane)
	}
	saved := int64(simcfg.EcallCycles - simcfg.SwitchlessCallCycles + 2*(simcfg.OcallCycles-simcfg.SwitchlessCallCycles))
	if d := plain.Cycles - onLane.Cycles; d != saved {
		t.Fatalf("the lane saves %d cycles, want exactly %d", d, saved)
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
// nested ecalls would wait for a second free slot forever, and the
// ocalls are handed to the lane's worker.
func TestLaneRelayChainNeedsNoSlot(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	opts := world.DefaultOptions()
	opts.NumTCS = 4
	w, _, err := core.NewPartitionedWorld(relayChainProgram(t, entered, release), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.StartGCHelpers() // a started helper holds no slot
	lanes, err := w.OpenLanes(opts.NumTCS)
	if err != nil || len(lanes) != opts.NumTCS-1 {
		t.Fatalf("OpenLanes = %d lanes, %v; want 4 slots - the spare", len(lanes), err)
	}
	held := make(chan error, len(lanes)-1)
	for _, l := range lanes[1:] {
		go func() {
			held <- w.ExecSpan(false, nil, l, func(env classmodel.Env) error {
				g, err := env.New("Gate")
				if err == nil {
					_, err = env.Call(g, "hold")
				}
				return err
			})
		}()
		<-entered
	}
	if got := w.Enclave().TCSInUse(); got != opts.NumTCS-1 {
		t.Fatalf("%d TCS slots held, want the %d lanes'", got, opts.NumTCS-1)
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
	// Gate's ctor and in called back: 6 hand-offs in, 4 out, no ecall
	// and no ocall.
	after := w.Enclave().Stats()
	if d := after.SwitchlessEcalls - before.SwitchlessEcalls; d != 6 {
		t.Errorf("%d hand-offs in, want 6", d)
	}
	if d := after.SwitchlessOcalls - before.SwitchlessOcalls; d != 4 {
		t.Errorf("%d hand-offs out, want 4", d)
	}
	if d := after.Ocalls - before.Ocalls; d != 0 {
		t.Errorf("%d ocalls, want 0", d)
	}
	if d := after.Ecalls - before.Ecalls; d != 0 {
		t.Errorf("%d ecalls, want 0", d)
	}
	close(release)
	for range lanes[1:] {
		if err := <-held; err != nil {
			t.Fatal(err)
		}
	}
}

// TestLaneBudget: lanes never take the ecall rings' slots or the
// spare one, however many are asked for.
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
	// 8 slots - 2 ecall rings - the spare - 3 open.
	more, err := w.OpenLanes(100)
	if err != nil || len(more) != 2 {
		t.Fatalf("OpenLanes(100) = %d lanes, %v; want the 2 left", len(more), err)
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
