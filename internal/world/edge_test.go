package world_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/sgx"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

func TestRunAfterClose(t *testing.T) {
	w := bankWorld(t)
	w.Close()
	if _, err := w.RunMain(); !errors.Is(err, sgx.ErrDestroyed) {
		t.Fatalf("RunMain after Close: %v", err)
	}
	if err := w.Exec(false, func(env classmodel.Env) error {
		// Untrusted-local work still runs, but crossing the boundary
		// fails.
		_, err := env.New(demo.Account, wire.Str("x"), wire.Int(1))
		return err
	}); !errors.Is(err, sgx.ErrDestroyed) {
		t.Fatalf("proxy creation after Close: %v", err)
	}
	// Close is idempotent.
	w.Close()
}

// TestStartStopHelpersIdempotent: start and stop each repeat as
// no-ops, and stopped helpers sweep nothing.
func TestStartStopHelpersIdempotent(t *testing.T) {
	w := bankWorld(t)
	w.StartGCHelpers()
	w.StartGCHelpers() // second start is a no-op
	w.StopGCHelpers()
	w.StopGCHelpers() // second stop is a no-op
	w.StartGCHelpers()
	w.StopGCHelpers()
	if _, err := w.RunMain(); err != nil {
		t.Fatal(err)
	}
	if err := w.Untrusted().Collect(); err != nil {
		t.Fatal(err)
	}
	if s := w.Stats().UntrustedSweeps; s.Sweeps != 0 {
		t.Fatalf("stopped helpers swept: %+v", s)
	}
}

// TestHelpersUnderChurn: the goroutines that churn proxies also collect,
// so the helper steps their collections trigger sweep concurrently with
// the other mutator; everything must stay consistent at the end.
func TestHelpersUnderChurn(t *testing.T) {
	w, _, err := core.NewPartitionedWorld(demo.MustBankProgram(), world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.StartGCHelpers()

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				err := w.Exec(false, func(env classmodel.Env) error {
					acct, err := env.New(demo.Account, wire.Str("churn"), wire.Int(int64(i)))
					if err != nil {
						return err
					}
					if _, err := env.Call(acct, "updateBalance", wire.Int(1)); err != nil {
						return err
					}
					return nil
				})
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				if i%5 == 0 {
					if err := w.Untrusted().Collect(); err != nil {
						t.Errorf("collect: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s := w.Stats().UntrustedSweeps; s.Sweeps == 0 || s.Released == 0 {
		t.Fatalf("no helper sweep under churn: %+v", s)
	}

	// Drain: after a final collect, swept by its helper step, the
	// registries agree with the surviving proxies.
	if err := w.Untrusted().Collect(); err != nil {
		t.Fatal(err)
	}
	if got, want := w.Trusted().Registry().Size(), w.Untrusted().HeapStats().Weaks; got != want {
		t.Fatalf("registry %d != live proxies %d", got, want)
	}
}

func TestGetFieldOnProxyRejected(t *testing.T) {
	w := bankWorld(t)
	err := w.Exec(false, func(env classmodel.Env) error {
		acct, err := env.New(demo.Account, wire.Str("f"), wire.Int(1))
		if err != nil {
			return err
		}
		if _, gerr := env.GetField(acct, "balance"); gerr == nil || !strings.Contains(gerr.Error(), "proxy") {
			t.Errorf("GetField on proxy: %v", gerr)
		}
		if serr := env.SetField(acct, "balance", wire.Int(0)); serr == nil || !strings.Contains(serr.Error(), "proxy") {
			t.Errorf("SetField on proxy: %v", serr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCallOnNonRef(t *testing.T) {
	w := bankWorld(t)
	err := w.Exec(false, func(env classmodel.Env) error {
		if _, cerr := env.Call(wire.Int(7), "anything"); !errors.Is(cerr, world.ErrNotRef) {
			t.Errorf("Call on int: %v", cerr)
		}
		if _, gerr := env.GetField(wire.Str("x"), "f"); !errors.Is(gerr, world.ErrNotRef) {
			t.Errorf("GetField on string: %v", gerr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuiltinMisuse(t *testing.T) {
	w := bankWorld(t)
	err := w.Exec(false, func(env classmodel.Env) error {
		// Array cannot be instantiated directly.
		if _, err := env.New(classmodel.BuiltinArray, wire.Int(4)); err == nil {
			t.Error("Array instantiated directly")
		}
		// Wrong constructor arguments.
		if _, err := env.New(classmodel.BuiltinString, wire.Int(1)); err == nil {
			t.Error("String(int) accepted")
		}
		if _, err := env.New(classmodel.BuiltinList, wire.Int(1)); !errors.Is(err, world.ErrBadArity) {
			t.Errorf("List(int): %v", err)
		}
		// Unknown builtin method.
		list, err := env.New(classmodel.BuiltinList)
		if err != nil {
			return err
		}
		if _, err := env.Call(list, "shuffle"); err == nil {
			t.Error("List.shuffle accepted")
		}
		// List.add of a non-ref.
		if _, err := env.Call(list, "add", wire.Int(1)); err == nil {
			t.Error("List.add(int) accepted")
		}
		// Builtin value methods.
		s, err := env.New(classmodel.BuiltinString, wire.Str("hello"))
		if err != nil {
			return err
		}
		if v, err := env.Call(s, "length"); err != nil || !v.Equal(wire.Int(5)) {
			t.Errorf("String.length = %v, %v", v, err)
		}
		if v, err := env.Call(s, "value"); err != nil || !v.Equal(wire.Str("hello")) {
			t.Errorf("String.value = %v, %v", v, err)
		}
		b, err := env.New(classmodel.BuiltinBytes, wire.Bytes([]byte{1, 2}))
		if err != nil {
			return err
		}
		if v, err := env.Call(b, "length"); err != nil || !v.Equal(wire.Int(2)) {
			t.Errorf("Bytes.length = %v, %v", v, err)
		}
		blob, err := env.New(classmodel.BuiltinBlob, wire.List(wire.Int(1)))
		if err != nil {
			return err
		}
		if v, err := env.Call(blob, "value"); err != nil || !v.Equal(wire.List(wire.Int(1))) {
			t.Errorf("Blob.value = %v, %v", v, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestListSurvivesRemoteRoundTrips(t *testing.T) {
	// A trusted object's List field holding trusted elements works
	// across many boundary interactions and collections.
	w := bankWorld(t)
	err := w.Exec(false, func(env classmodel.Env) error {
		reg, err := env.New(demo.AccountRegistry)
		if err != nil {
			return err
		}
		var total int64
		for i := 0; i < 10; i++ {
			acct, err := env.New(demo.Account, wire.Str("u"), wire.Int(int64(i)))
			if err != nil {
				return err
			}
			if _, err := env.Call(reg, "addAccount", acct); err != nil {
				return err
			}
			total += int64(i)
		}
		if err := w.Trusted().Collect(); err != nil {
			return err
		}
		sum, err := env.Call(reg, "totalBalance")
		if err != nil {
			return err
		}
		if !sum.Equal(wire.Int(total)) {
			t.Errorf("totalBalance = %v, want %d", sum, total)
		}
		size, err := env.Call(reg, "size")
		if err != nil {
			return err
		}
		if !size.Equal(wire.Int(10)) {
			t.Errorf("size = %v", size)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestValuesThroughBoundaryPreserved(t *testing.T) {
	// Neutral values (strings, lists, maps, bytes, floats) cross by
	// value in both directions without corruption.
	w, _, err := core.NewPartitionedWorld(twoWayProgram(t), world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Exec(false, func(env classmodel.Env) error {
		acct, err := env.New(demo.Account, wire.Str("héllo ∀ unicode"), wire.Int(-1))
		if err != nil {
			return err
		}
		owner, err := env.Call(acct, "getOwner")
		if err != nil {
			return err
		}
		if !owner.Equal(wire.Str("héllo ∀ unicode")) {
			t.Errorf("owner round trip = %v", owner)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
