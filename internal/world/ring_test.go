package world_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// ringWorld builds a partitioned world with the zero-copy ring data
// plane enabled, letting the caller tweak the options first.
func ringWorld(t *testing.T, prog *classmodel.Program, mutate func(*world.Options)) *world.World {
	t.Helper()
	opts := world.DefaultOptions()
	opts.Cfg.Rings = true
	if mutate != nil {
		mutate(&opts)
	}
	w, _, err := core.NewPartitionedWorld(prog, opts)
	if err != nil {
		t.Fatalf("NewPartitionedWorld: %v", err)
	}
	t.Cleanup(w.Close)
	return w
}

// TestRingDataPlaneBank runs the Listing 1 application with rings on:
// the result must be identical to the frame path, and the RMIs must
// actually have ridden the rings (sealed in place, not MEE-copied).
func TestRingDataPlaneBank(t *testing.T) {
	w := ringWorld(t, demo.MustBankProgram(), nil)
	result, err := w.RunMain()
	if err != nil {
		t.Fatalf("RunMain: %v", err)
	}
	wantBankResult(t, result)

	ds := w.DispatchStats()
	if ds.RingCalls == 0 {
		t.Fatalf("no calls rode the rings: %+v", ds)
	}
	if ds.RingSealedBytes == 0 {
		t.Fatalf("ring calls without sealed bytes: %+v", ds)
	}
	if ds.RingSubmits < ds.RingCalls {
		t.Fatalf("submits %d < ring calls %d", ds.RingSubmits, ds.RingCalls)
	}
	// Default 64 KiB slots hold every bank RMI.
	if ds.RingOversize != 0 {
		t.Fatalf("unexpected oversize fallbacks: %+v", ds)
	}
}

// TestRingOversizeAndOverflow shrinks the slots so both escape hatches
// fire: a large request falls back to the frame path before submission
// (oversize), and a small request with a large result crosses back as a
// plain bounce buffer (overflow). Both must stay correct.
func TestRingOversizeAndOverflow(t *testing.T) {
	w := ringWorld(t, demo.MustBankProgram(), func(o *world.Options) {
		o.Cfg.RingSlotBytes = 256
	})
	bigOwner := strings.Repeat("O", 8<<10)
	err := w.Exec(false, func(env classmodel.Env) error {
		// Ctor args exceed the 256-byte slot: oversize, frame fallback.
		acct, err := env.New(demo.Account, wire.Str(bigOwner), wire.Int(11))
		if err != nil {
			return err
		}
		// Small request, 8 KiB result: rides the ring, returns overflow.
		owner, err := env.Call(acct, "getOwner")
		if err != nil {
			return err
		}
		if !owner.Equal(wire.Str(bigOwner)) {
			t.Errorf("getOwner returned %d bytes, want %d", len(owner.String()), len(bigOwner))
		}
		bal, err := env.Call(acct, "getBalance")
		if err != nil {
			return err
		}
		if !bal.Equal(wire.Int(11)) {
			t.Errorf("balance = %v, want 11", bal)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := w.DispatchStats()
	if ds.RingOversize == 0 {
		t.Fatalf("oversized ctor did not fall back: %+v", ds)
	}
	if ds.RingCalls == 0 {
		t.Fatalf("small calls did not ride the rings: %+v", ds)
	}
	if ds.RingOverflowBytes < uint64(len(bigOwner)) {
		t.Fatalf("overflow bytes %d, want >= %d (getOwner result)", ds.RingOverflowBytes, len(bigOwner))
	}
}

// TestRingKillRestart: rings are torn down with the enclave on Kill and
// rebuilt on Restart, and calls ride them again afterwards.
func TestRingKillRestart(t *testing.T) {
	w := ringWorld(t, demo.MustBankProgram(), nil)
	if _, err := w.RunMain(); err != nil {
		t.Fatal(err)
	}
	before := w.DispatchStats().RingCalls
	if before == 0 {
		t.Fatal("no ring calls before kill")
	}
	w.Kill()
	if err := w.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	result, err := w.RunMain()
	if err != nil {
		t.Fatalf("RunMain after restart: %v", err)
	}
	wantBankResult(t, result)
	// The boundary (and its counters) is rebuilt from scratch: the fresh
	// ring plane must carry the rerun.
	if after := w.DispatchStats().RingCalls; after == 0 {
		t.Fatal("no ring calls on the rebuilt plane")
	}
}

// TestRingConcurrentStress hammers the rings from both directions while
// collections trigger GC-helper sweeps and the batch queues flush — run
// under -race (internal/world is in the Makefile race list) this
// exercises the ring producer locks, held by callers that run the far
// side themselves, against the crossing engine's shard and heap locks.
func TestRingConcurrentStress(t *testing.T) {
	w := ringWorld(t, twoWayProgram(t), func(o *world.Options) { o.Cfg.Batching = true })
	w.StartGCHelpers()

	const goroutines = 6
	iters := 25
	if testing.Short() {
		iters = 8
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*goroutines+1)

	// Untrusted side: trusted mirrors, queued void calls, flushes.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := w.Exec(false, func(env classmodel.Env) error {
					acct, err := env.New(demo.Account, wire.Str("Ring"), wire.Int(3))
					if err != nil {
						return err
					}
					for _, d := range []int64{5, -2} {
						if _, err := env.Call(acct, "updateBalance", wire.Int(d)); err != nil {
							return err
						}
					}
					bal, err := env.Call(acct, "getBalance")
					if err != nil {
						return err
					}
					if !bal.Equal(wire.Int(6)) {
						return fmt.Errorf("balance = %v, want 6", bal)
					}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	// Trusted side: untrusted proxies, ocall-direction rings.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := w.Exec(true, func(env classmodel.Env) error {
					p, err := env.New(demo.Person, wire.Str("Dave"), wire.Int(1))
					if err != nil {
						return err
					}
					name, err := env.Call(p, "getName")
					if err != nil {
						return err
					}
					if !name.Equal(wire.Str("Dave")) {
						return fmt.Errorf("name = %v, want Dave", name)
					}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	// Sweeper: collections, each followed by the helper step, and
	// explicit sweeps racing the crossings.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := w.Untrusted().Collect(); err != nil {
				errs <- err
				return
			}
			if err := w.SweepOnce(w.Untrusted()); err != nil {
				errs <- err
				return
			}
			if err := w.Flush(); err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}

	ds := w.DispatchStats()
	if ds.RingCalls == 0 {
		t.Fatalf("stress run never rode the rings: %+v", ds)
	}
	if ds.PendingCalls != 0 {
		t.Fatalf("pending calls %d after quiesce", ds.PendingCalls)
	}
}

// TestRingStoppedFallsThrough: a call whose ring group has stopped
// crosses through exactly one full transition and counts exactly one
// ring fallback.
func TestRingStoppedFallsThrough(t *testing.T) {
	w := ringWorld(t, demo.MustBankProgram(), nil)
	err := w.Exec(false, func(env classmodel.Env) error {
		acct, err := env.New(demo.Account, wire.Str("Eve"), wire.Int(9))
		if err != nil {
			return err
		}
		w.Untrusted().CloseRings()
		before, ecalls := w.DispatchStats(), w.Enclave().Stats().Ecalls
		bal, err := env.Call(acct, "getBalance")
		if err != nil {
			return err
		}
		if !bal.Equal(wire.Int(9)) {
			return fmt.Errorf("balance = %v, want 9", bal)
		}
		after := w.DispatchStats()
		if full, fell := after.FullCalls-before.FullCalls, after.RingFallbacks-before.RingFallbacks; full != 1 || fell != 1 {
			return fmt.Errorf("%d full transitions and %d ring fallbacks, want 1 and 1", full, fell)
		}
		if after.RingCalls != before.RingCalls {
			return fmt.Errorf("%d calls rode a stopped ring", after.RingCalls-before.RingCalls)
		}
		if got := w.Enclave().Stats().Ecalls - ecalls; got != 1 {
			return fmt.Errorf("%d ecalls, want 1", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestKillReleasesRingSlots: each ecall ring holds one TCS slot from
// boot, and Kill releases every one of them; a Restart takes them again.
// The ocall rings hold none.
func TestKillReleasesRingSlots(t *testing.T) {
	w := ringWorld(t, demo.MustBankProgram(), nil)
	if _, err := w.RunMain(); err != nil {
		t.Fatal(err)
	}
	e := w.Enclave()
	if n := e.TCSInUse(); n != simcfg.DefaultRingWorkers {
		t.Fatalf("%d TCS slots held, want the %d ecall rings'", n, simcfg.DefaultRingWorkers)
	}
	w.Kill()
	if n := e.TCSInUse(); n != 0 {
		t.Fatalf("killed enclave: %d TCS slots held", n)
	}
	if err := w.Restart(); err != nil {
		t.Fatal(err)
	}
	if n := w.Enclave().TCSInUse(); n != simcfg.DefaultRingWorkers {
		t.Fatalf("after Restart: %d TCS slots held, want %d", n, simcfg.DefaultRingWorkers)
	}
}

// TestRestartReusesRingSlotsRaceFree: a World killed with ring traffic
// in flight in both directions hands its slot memory to the groups
// Restart builds, each ring's one slot reused by every call on it. Calls of the killed generation keep running through
// the kill while calls on the new generation ride the same slots; a
// write by a goroutine of the killed generation to a slot the new group
// owns is a data race under -race (internal/world is in make test's race
// list) and a failed slot authentication or a wrong balance without it.
func TestRestartReusesRingSlotsRaceFree(t *testing.T) {
	w := ringWorld(t, twoWayProgram(t), nil)
	// traffic runs one round of calls in each direction. A round that
	// meets a kill fails, typed; one that succeeds read correct results.
	traffic := func() error {
		err := w.Exec(false, func(env classmodel.Env) error {
			acct, err := env.New(demo.Account, wire.Str("Slot"), wire.Int(9))
			if err != nil {
				return err
			}
			for i := 0; i < 8; i++ {
				bal, err := env.Call(acct, "getBalance")
				if err != nil {
					return err
				}
				if !bal.Equal(wire.Int(9)) {
					t.Errorf("balance = %v, want 9", bal)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		return w.Exec(true, func(env classmodel.Env) error {
			p, err := env.New(demo.Person, wire.Str("Dave"), wire.Int(1))
			if err != nil {
				return err
			}
			name, err := env.Call(p, "getName")
			if err != nil {
				return err
			}
			if !name.Equal(wire.Str("Dave")) {
				t.Errorf("name = %v, want Dave", name)
			}
			return nil
		})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = traffic()
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for gen := 0; gen < 5; gen++ {
		// Kill only once this generation's rings carry traffic.
		for w.DispatchStats().RingCalls < 32 {
			runtime.Gosched()
		}
		w.Kill()
		if err := w.Restart(); err != nil {
			t.Fatalf("generation %d: Restart: %v", gen+1, err)
		}
		if err := traffic(); err != nil {
			t.Fatalf("generation %d: calls on the new generation: %v", gen+1, err)
		}
	}
}

// TestRingsNeedASpareTCS: ecall rings that would hold every TCS slot of
// the enclave fail the boot with ErrTCSBudget instead of waiting for a
// slot no one frees; with one slot to spare the world boots and a
// trusted Exec enters beside the rings. Each boot runs under a deadline,
// so a boot that hangs fails the test.
func TestRingsNeedASpareTCS(t *testing.T) {
	for _, c := range []struct {
		tcs, rings int
		ok         bool
	}{{1, 0, false}, {2, 2, false}, {3, 2, true}, {2, 1, true}} {
		opts := world.DefaultOptions()
		opts.Cfg.Rings = true
		opts.Cfg.RingWorkers = c.rings
		opts.NumTCS = c.tcs
		type boot struct {
			w   *world.World
			err error
		}
		done := make(chan boot, 1)
		go func() {
			w, _, err := core.NewPartitionedWorld(demo.MustBankProgram(), opts)
			if err == nil {
				err = w.Exec(true, func(env classmodel.Env) error {
					_, err := env.New(demo.Account, wire.Str("Tess"), wire.Int(1))
					return err
				})
			}
			done <- boot{w, err}
		}()
		select {
		case b := <-done:
			if b.w != nil {
				b.w.Close()
			}
			if c.ok && b.err != nil {
				t.Errorf("%d TCS, RingWorkers %d: %v", c.tcs, c.rings, b.err)
			}
			if !c.ok && !errors.Is(b.err, world.ErrTCSBudget) {
				t.Errorf("%d TCS, RingWorkers %d: err = %v, want ErrTCSBudget", c.tcs, c.rings, b.err)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("%d TCS, RingWorkers %d: boot and Exec did not return in 3 s", c.tcs, c.rings)
		}
	}
}
