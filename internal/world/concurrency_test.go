package world_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// TestObjectTableDrainsAfterFrames pins the eager-removal contract of
// the sharded object table: every entry is frame- or pin-owned, so once
// all frames close (and nothing is pinned) both runtimes' tables must be
// empty — the table never accumulates garbage across calls.
func TestObjectTableDrainsAfterFrames(t *testing.T) {
	w := bankWorld(t)
	if _, err := w.RunMain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		err := w.Exec(false, func(env classmodel.Env) error {
			acct, err := env.New(demo.Account, wire.Str("Eve"), wire.Int(10))
			if err != nil {
				return err
			}
			_, err = env.Call(acct, "getBalance")
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, rt := range []*world.Runtime{w.Untrusted(), w.Trusted()} {
		if got := rt.Stats().ObjectTableLen; got != 0 {
			t.Errorf("%s object table has %d entries after all frames closed, want 0", sideOf(w, rt), got)
		}
	}

	// A pin keeps its entry alive past the frame; unpinning drops it.
	var pinned wire.Value
	err := w.Exec(false, func(env classmodel.Env) error {
		v, err := env.New(demo.Account, wire.Str("Pin"), wire.Int(1))
		if err != nil {
			return err
		}
		pinned = v
		return w.Untrusted().Pin(v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Untrusted().Stats().ObjectTableLen; got == 0 {
		t.Fatal("pinned object not retained in table")
	}
	if err := w.Untrusted().Unpin(pinned); err != nil {
		t.Fatal(err)
	}
	if got := w.Untrusted().Stats().ObjectTableLen; got != 0 {
		t.Errorf("object table has %d entries after unpin, want 0", got)
	}
}

// TestConcurrentCrossingStress hammers the crossing engine from both
// directions while the GC helpers sweep after every collection that
// clears a weak reference: G goroutines per side run
// proxy-creating, proxy-calling frames concurrently with collections,
// across batching on/off. Run under -race (it is in the Makefile race
// list) this exercises the shard locks, the narrow heap locks, and the
// lock-order rule between opposite runtimes.
func TestConcurrentCrossingStress(t *testing.T) {
	for _, batching := range []bool{false, true} {
		t.Run(fmt.Sprintf("batching=%v", batching), func(t *testing.T) {
			opts := world.DefaultOptions()
			opts.Cfg.Batching = batching
			w, _, err := core.NewPartitionedWorld(twoWayProgram(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			w.StartGCHelpers()

			const goroutines = 8
			iters := 30
			if testing.Short() {
				iters = 10
			}
			var wg sync.WaitGroup
			errs := make(chan error, 2*goroutines+1)

			// Untrusted side: allocate trusted mirrors and invoke them.
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						err := w.Exec(false, func(env classmodel.Env) error {
							acct, err := env.New(demo.Account, wire.Str("Stress"), wire.Int(3))
							if err != nil {
								return err
							}
							bal, err := env.Call(acct, "getBalance")
							if err != nil {
								return err
							}
							if !bal.Equal(wire.Int(3)) {
								return fmt.Errorf("balance = %v, want 3", bal)
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

			// Trusted side: allocate untrusted proxies and call out.
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

			// Collector: force proxy deaths so the helper sweeps its
			// collections trigger run against live traffic, and move the enclave heap under the
			// trusted bodies — its EPC memory takes no lock of its own, so
			// heapMu alone must order the collection against them. Not
			// part of wg — it runs until the callers finish, then is told
			// to stop.
			done := make(chan struct{})
			collectorDone := make(chan struct{})
			go func() {
				defer close(collectorDone)
				for {
					select {
					case <-done:
						return
					case <-time.After(2 * time.Millisecond):
					}
					for _, rt := range []*world.Runtime{w.Untrusted(), w.Trusted()} {
						if err := rt.Collect(); err != nil {
							errs <- fmt.Errorf("collect %s: %w", sideOf(w, rt), err)
							return
						}
					}
				}
			}()

			waitCalls := make(chan struct{})
			go func() {
				wg.Wait()
				close(waitCalls)
			}()
			select {
			case <-waitCalls:
			case <-time.After(60 * time.Second):
				t.Fatal("stress run wedged")
			}
			close(done)
			<-collectorDone
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}

			// Quiesce: tables must drain once all frames are gone. Under
			// batching a body may leave void calls queued — an untrusted
			// Person constructor queues its Account's — which the next
			// flush runs: run what is queued first.
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			for _, rt := range []*world.Runtime{w.Untrusted(), w.Trusted()} {
				if got := rt.Stats().ObjectTableLen; got != 0 {
					t.Errorf("%s object table has %d entries after stress, want 0", sideOf(w, rt), got)
				}
			}
		})
	}
}

// sideOf names the side rt runs on, for failure messages.
func sideOf(w *world.World, rt *world.Runtime) string {
	if rt == w.Trusted() {
		return "trusted"
	}
	return "untrusted"
}
