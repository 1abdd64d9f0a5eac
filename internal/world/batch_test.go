package world_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"montsalvat/internal/boundary"
	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/registry"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/transform"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// batchingWorld builds the partitioned bank app with transition batching
// enabled (and optionally the switchless transition cost).
func batchingWorld(t *testing.T, switchless bool) *world.World {
	t.Helper()
	opts := world.DefaultOptions()
	opts.Cfg.Batching = true
	opts.Cfg.Switchless = switchless
	w, _, err := core.NewPartitionedWorld(demo.MustBankProgram(), opts)
	if err != nil {
		t.Fatalf("NewPartitionedWorld: %v", err)
	}
	t.Cleanup(w.Close)
	return w
}

// TestBatchOrderingPreserved: queued void calls (ctor + updates) must be
// applied in submission order before a result-dependent call observes
// the object.
func TestBatchOrderingPreserved(t *testing.T) {
	w := batchingWorld(t, false)
	err := w.Exec(false, func(env classmodel.Env) error {
		acct, err := env.New(demo.Account, wire.Str("Ada"), wire.Int(100))
		if err != nil {
			return err
		}
		// All void: the ctor and the updates ride the queue together.
		for _, delta := range []int64{10, -30, 5} {
			if _, err := env.Call(acct, "updateBalance", wire.Int(delta)); err != nil {
				return err
			}
		}
		bal, err := env.Call(acct, "getBalance")
		if err != nil {
			return err
		}
		if !bal.Equal(wire.Int(85)) {
			t.Errorf("balance = %v, want 85 (ctor before updates, in order)", bal)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := w.DispatchStats()
	if ds.BatchFlushes == 0 || ds.BatchedCalls < 4 {
		t.Fatalf("no batching happened: %+v", ds)
	}
}

// TestBatchFlushOnResultDependency: result-independent calls coalesce
// into one transition, flushed only when a result-dependent call needs
// their effects — strictly fewer ecalls than unbatched dispatch.
func TestBatchFlushOnResultDependency(t *testing.T) {
	const updates = 8
	run := func(w *world.World) uint64 {
		before := w.Stats().Enclave.Ecalls
		err := w.Exec(false, func(env classmodel.Env) error {
			acct, err := env.New(demo.Account, wire.Str("Bo"), wire.Int(0))
			if err != nil {
				return err
			}
			for i := 0; i < updates; i++ {
				if _, err := env.Call(acct, "updateBalance", wire.Int(1)); err != nil {
					return err
				}
			}
			bal, err := env.Call(acct, "getBalance")
			if err != nil {
				return err
			}
			if !bal.Equal(wire.Int(updates)) {
				t.Errorf("balance = %v, want %d", bal, updates)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Stats().Enclave.Ecalls - before
	}

	batched := run(batchingWorld(t, false))
	full := run(bankWorld(t))
	// Batched: one frame ecall (ctor + 8 updates) plus the getBalance
	// ecall. Full dispatch pays one transition per call.
	if batched != 2 {
		t.Fatalf("batched ecalls = %d, want 2 (one frame + one get)", batched)
	}
	if full != updates+2 {
		t.Fatalf("full ecalls = %d, want %d", full, updates+2)
	}
}

// TestBatchErrorDoesNotCorruptLaterCalls: a failing call in the middle
// of a batch surfaces at the flush, and calls after it still run.
func TestBatchErrorDoesNotCorruptLaterCalls(t *testing.T) {
	w := batchingWorld(t, false)
	err := w.Exec(false, func(env classmodel.Env) error {
		stale, err := env.New(demo.Account, wire.Str("Eve"), wire.Int(1))
		if err != nil {
			return err
		}
		good, err := env.New(demo.Account, wire.Str("Flo"), wire.Int(1))
		if err != nil {
			return err
		}
		// Materialize both mirrors, then kill Eve's.
		if err := w.Flush(); err != nil {
			return err
		}
		_, staleHash, _ := stale.AsRef()
		if _, err := w.Trusted().Registry().Release(staleHash); err != nil {
			return err
		}

		// Queue a doomed call before a good one.
		if _, err := env.Call(stale, "updateBalance", wire.Int(5)); err != nil {
			return err
		}
		if _, err := env.Call(good, "updateBalance", wire.Int(5)); err != nil {
			return err
		}
		flushErr := w.Flush()
		if !errors.Is(flushErr, world.ErrStaleMirror) {
			t.Errorf("flush err = %v, want ErrStaleMirror", flushErr)
		}
		// The call after the failing one was still applied.
		bal, err := env.Call(good, "getBalance")
		if err != nil {
			return err
		}
		if !bal.Equal(wire.Int(6)) {
			t.Errorf("balance = %v, want 6 (later batched call applied)", bal)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCloseFlushesPendingBatch: World.Close drains queued calls before
// tearing the enclave down.
func TestCloseFlushesPendingBatch(t *testing.T) {
	opts := world.DefaultOptions()
	opts.Cfg.Batching = true
	w, _, err := core.NewPartitionedWorld(demo.MustBankProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Exec(false, func(env classmodel.Env) error {
		acct, err := env.New(demo.Account, wire.Str("Gil"), wire.Int(0))
		if err != nil {
			return err
		}
		_, err = env.Call(acct, "updateBalance", wire.Int(3))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds := w.DispatchStats(); ds.PendingCalls == 0 {
		t.Fatalf("nothing pending before Close: %+v", ds)
	}
	w.Close()
	ds := w.DispatchStats()
	if ds.PendingCalls != 0 {
		t.Fatalf("Close left %d pending calls", ds.PendingCalls)
	}
	if ds.BatchFlushes == 0 || ds.BatchedCalls != 2 {
		t.Fatalf("Close did not flush the queue: %+v", ds)
	}
}

// TestExplicitWorldFlush: World.Flush drains the queues on demand and
// the effects are immediately visible on the trusted side.
func TestExplicitWorldFlush(t *testing.T) {
	w := batchingWorld(t, false)
	err := w.Exec(false, func(env classmodel.Env) error {
		if _, err := env.New(demo.Account, wire.Str("Hal"), wire.Int(9)); err != nil {
			return err
		}
		if w.Trusted().Registry().Size() != 0 {
			t.Error("ctor crossed the boundary before any flush")
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if got := w.Trusted().Registry().Size(); got != 1 {
			t.Errorf("registry size after Flush = %d, want 1", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil { // empty flush is a no-op
		t.Fatal(err)
	}
	if ds := w.DispatchStats(); ds.BatchFlushes != 1 {
		t.Fatalf("flushes = %d, want 1 (empty flush must not count)", ds.BatchFlushes)
	}
}

// TestSweepBatchesReleases: with batching on, the GC sweep coalesces all
// mirror releases into a single batched transition.
func TestSweepBatchesReleases(t *testing.T) {
	w := batchingWorld(t, false)
	if _, err := w.RunMain(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := w.Trusted().Registry().Size(); got != 3 {
		t.Fatalf("registry size after main = %d, want 3", got)
	}
	if err := w.Untrusted().Collect(); err != nil {
		t.Fatal(err)
	}
	before := w.Stats().Enclave.Ecalls
	if err := w.SweepOnce(w.Untrusted()); err != nil {
		t.Fatal(err)
	}
	if got := w.Trusted().Registry().Size(); got != 0 {
		t.Fatalf("registry size after sweep = %d, want 0", got)
	}
	if got := w.Stats().Enclave.Ecalls - before; got != 1 {
		t.Fatalf("sweep used %d ecalls, want 1 batched frame", got)
	}
}

// TestSwitchlessEndToEnd: the bank program runs on the Switchless +
// Batching world, and every transition of the run is charged
// SwitchlessCallCycles — the run differs from the same run at regular
// transition cost by exactly that price difference per ecall and ocall.
func TestSwitchlessEndToEnd(t *testing.T) {
	run := func(switchless bool) world.Stats {
		w := batchingWorld(t, switchless)
		result, err := w.RunMain()
		if err != nil {
			t.Fatal(err)
		}
		wantBankResult(t, result)
		return w.Stats()
	}
	sw, full := run(true), run(false)
	if sw.Enclave.Ecalls == 0 || sw.Enclave.Ecalls != full.Enclave.Ecalls || sw.Enclave.Ocalls != full.Enclave.Ocalls {
		t.Fatalf("transitions differ: switchless %d/%d, regular %d/%d",
			sw.Enclave.Ecalls, sw.Enclave.Ocalls, full.Enclave.Ecalls, full.Enclave.Ocalls)
	}
	saved := int64(sw.Enclave.Ecalls)*(simcfg.EcallCycles-simcfg.SwitchlessCallCycles) +
		int64(sw.Enclave.Ocalls)*(simcfg.OcallCycles-simcfg.SwitchlessCallCycles)
	if got := full.Cycles - sw.Cycles; got != saved {
		t.Fatalf("switchless run is %d cycles cheaper, want %d (%d ecalls, %d ocalls at %d each)",
			got, saved, sw.Enclave.Ecalls, sw.Enclave.Ocalls, simcfg.SwitchlessCallCycles)
	}
}

// TestBatchedBytesOutliveFrame: a batched setter's bytes argument is
// decoded out of the batch frame before the flush recycles the frame
// buffer, so overwriting the recycled buffers changes neither the stored
// field nor the argument value the callee kept.
func TestBatchedBytesOutliveFrame(t *testing.T) {
	var kept wire.Value
	p := demo.MustBankProgram()
	box := classmodel.NewClass("ByteBox", classmodel.Trusted)
	if err := box.AddField(classmodel.Field{Name: "data", Kind: classmodel.FieldBytes}); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*classmodel.Method{
		{
			Name: classmodel.CtorName, Public: true,
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				return wire.Null(), nil
			},
		},
		{
			Name: "set", Public: true,
			Params: []classmodel.Param{{Name: "b", Kind: wire.KindBytes}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				kept = args[0]
				return wire.Null(), env.SetField(self, "data", args[0])
			},
		},
		{
			Name: "get", Public: true, Returns: wire.KindBytes,
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				return env.GetField(self, "data")
			},
		},
	} {
		if err := box.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddClass(box); err != nil {
		t.Fatal(err)
	}
	// Untrusted code reaches the setter and the getter through main.
	mainC := classmodel.NewClass("ByteBoxMain", classmodel.Untrusted)
	if err := mainC.AddMethod(&classmodel.Method{
		Name: classmodel.MainMethodName, Static: true, Public: true,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return wire.Null(), nil
		},
		Allocates: []string{"ByteBox"},
		Calls:     []classmodel.MethodRef{{Class: "ByteBox", Method: "set"}, {Class: "ByteBox", Method: "get"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(mainC); err != nil {
		t.Fatal(err)
	}
	p.MainClass = "ByteBoxMain"
	opts := world.DefaultOptions()
	opts.Cfg.Batching = true
	w, _, err := core.NewPartitionedWorld(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	payload := bytes.Repeat([]byte{0x5a}, 1000)
	var obj wire.Value
	err = w.Exec(false, func(env classmodel.Env) error {
		var err error
		if obj, err = env.New("ByteBox"); err != nil {
			return err
		}
		if _, err := env.Call(obj, "set", wire.Bytes(payload)); err != nil {
			return err
		}
		return w.Untrusted().Pin(obj)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.DispatchStats().PendingCalls; got != 2 {
		t.Fatalf("%d calls queued, want the ctor and the setter", got)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// The flush returned its frame (and the queued calls' buffers) to
	// the pool: draw every buffer of that size class and scribble on it.
	pool := w.BufPool()
	var drawn [][]byte
	for i := 0; i < 8; i++ {
		b := pool.Get(len(payload) + 64)
		b = b[:cap(b)]
		for j := range b {
			b[j] = 0xee
		}
		drawn = append(drawn, b)
	}
	for _, b := range drawn {
		pool.Put(b)
	}

	if b, _ := kept.AsBytes(); !bytes.Equal(b, payload) {
		t.Fatal("the setter's argument value aliased a recycled buffer")
	}
	err = w.Exec(false, func(env classmodel.Env) error {
		got, err := env.Call(obj, "get")
		if err != nil {
			return err
		}
		if b, _ := got.AsBytes(); !bytes.Equal(b, payload) {
			return fmt.Errorf("stored field reads back %d bytes, not the payload", len(b))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForgedReleasesAreTyped: the host forges <gc-release> records, for
// a hash it was never given and for a mirror a release already dropped,
// through both routes into the one executor of call records — a ring
// submission and a batch frame. Each fails with registry.ErrUnknownHash
// and leaves the registry as it was; in a frame, the calls after a
// forged release still run.
func TestForgedReleasesAreTyped(t *testing.T) {
	w := batchingWorld(t, false)
	var dropped, good int64
	err := w.Exec(false, func(env classmodel.Env) error {
		for _, h := range []*int64{&dropped, &good} {
			acct, err := env.New(demo.Account, wire.Str("Ann"), wire.Int(1))
			if err != nil {
				return err
			}
			if err := w.Untrusted().Pin(acct); err != nil {
				return err
			}
			_, *h, _ = acct.AsRef()
		}
		return w.Flush()
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := w.Trusted().Registry()
	if _, err := reg.Release(dropped); err != nil {
		t.Fatal(err)
	}
	size := reg.Size()
	const neverGiven = 1<<40 + 7
	release := func(hash int64) []byte {
		return wire.AppendCallHeader([]byte{0}, "", "<gc-release>", hash, 0)
	}

	handle := w.RingHandler(w.Trusted())
	for _, hash := range []int64{neverGiven, dropped} {
		err := w.Exec(true, func(classmodel.Env) error {
			slot := make([]byte, 0, 64)
			out, overflow, herr := handle(1, append(slot, release(hash)...), slot, nil)
			if out != nil || overflow {
				t.Errorf("release of %d answered %d bytes", hash, len(out))
			}
			return herr
		})
		if !errors.Is(err, registry.ErrUnknownHash) {
			t.Errorf("ring release of %d: err = %v, want ErrUnknownHash", hash, err)
		}
		if got := reg.Size(); got != size {
			t.Fatalf("registry holds %d mirrors after a forged release, want %d", got, size)
		}
	}

	args := wire.AppendValues(nil, []wire.Value{wire.Int(5)})
	deposit := append(wire.AppendCallHeader([]byte{0}, demo.Account, transform.RelayName("updateBalance"), good, len(args)), args...)
	for _, req := range [][]byte{release(neverGiven), deposit, release(dropped), deposit} {
		if err := w.Untrusted().Enqueue(boundary.Entry{Req: req}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); !errors.Is(err, registry.ErrUnknownHash) {
		t.Fatalf("frame flush: err = %v, want ErrUnknownHash", err)
	}
	if got := reg.Size(); got != size {
		t.Fatalf("registry holds %d mirrors after forged releases, want %d", got, size)
	}
	if ds := w.DispatchStats(); ds.RingCalls != 0 {
		t.Fatalf("the flush rode a ring: %+v", ds)
	}
	err = w.Exec(false, func(env classmodel.Env) error {
		bal, err := env.Call(wire.Ref(demo.Account, good), "getBalance")
		if err != nil {
			return err
		}
		if !bal.Equal(wire.Int(11)) {
			return fmt.Errorf("balance = %v, want 11: a call after a forged release did not run", bal)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
