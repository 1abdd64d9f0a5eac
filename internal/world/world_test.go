package world_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/image"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// bankWorld builds and starts the partitioned Listing 1 application.
func bankWorld(t *testing.T) *world.World {
	t.Helper()
	w, _, err := core.NewPartitionedWorld(demo.MustBankProgram(), world.DefaultOptions())
	if err != nil {
		t.Fatalf("NewPartitionedWorld: %v", err)
	}
	t.Cleanup(w.Close)
	return w
}

func wantBankResult(t *testing.T, got wire.Value) {
	t.Helper()
	want := wire.List(wire.Int(75), wire.Int(50), wire.Int(1))
	if !got.Equal(want) {
		t.Fatalf("main returned %v, want %v", got, want)
	}
}

func TestBankPartitioned(t *testing.T) {
	w := bankWorld(t)
	result, err := w.RunMain()
	if err != nil {
		t.Fatalf("RunMain: %v", err)
	}
	wantBankResult(t, result)

	s := w.Stats()
	// Proxy constructors and RMIs crossed the boundary.
	if s.Enclave.Ecalls < 5 {
		t.Fatalf("Ecalls = %d, want >= 5", s.Enclave.Ecalls)
	}
	// Three trusted mirrors exist: Alice's and Bob's accounts plus the
	// registry.
	if got := s.Trusted.RegistrySize; got != 3 {
		t.Fatalf("trusted registry size = %d, want 3", got)
	}
	// The untrusted runtime holds weak-tracked proxies for them.
	if got := s.Untrusted.WeakListLen; got != 3 {
		t.Fatalf("untrusted weak list = %d, want 3", got)
	}
	if s.Untrusted.RemoteCallsOut == 0 {
		t.Fatal("no remote calls recorded")
	}
	if s.Enclave.MEE.LinesEncrypted == 0 {
		t.Fatal("trusted heap did not touch the MEE")
	}
}

func TestBankUnpartitionedSGX(t *testing.T) {
	w, _, err := core.NewUnpartitionedWorld(demo.MustBankProgram(), world.DefaultOptions(), true)
	if err != nil {
		t.Fatalf("NewUnpartitionedWorld: %v", err)
	}
	defer w.Close()
	result, err := w.RunMain()
	if err != nil {
		t.Fatalf("RunMain: %v", err)
	}
	wantBankResult(t, result)
	s := w.Stats()
	// Exactly one ecall: main. No proxies anywhere.
	if s.Enclave.Ecalls != 1 {
		t.Fatalf("Ecalls = %d, want 1 (just main)", s.Enclave.Ecalls)
	}
	if s.Trusted.ProxiesCreated != 0 {
		t.Fatalf("proxies created = %d, want 0", s.Trusted.ProxiesCreated)
	}
	if s.Trusted.RegistrySize != 0 {
		t.Fatalf("registry size = %d, want 0", s.Trusted.RegistrySize)
	}
}

func TestBankNoSGX(t *testing.T) {
	w, _, err := core.NewUnpartitionedWorld(demo.MustBankProgram(), world.DefaultOptions(), false)
	if err != nil {
		t.Fatalf("NewUnpartitionedWorld: %v", err)
	}
	defer w.Close()
	result, err := w.RunMain()
	if err != nil {
		t.Fatalf("RunMain: %v", err)
	}
	wantBankResult(t, result)
	if w.Enclave() != nil {
		t.Fatal("NoSGX world has an enclave")
	}
}

func TestResultsAgreeAcrossModes(t *testing.T) {
	// The same program must compute identical results in all three
	// deployment modes — partitioning is transparent to semantics.
	var results []wire.Value
	wp := bankWorld(t)
	r, err := wp.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, r)
	for _, inEnclave := range []bool{true, false} {
		w, _, err := core.NewUnpartitionedWorld(demo.MustBankProgram(), world.DefaultOptions(), inEnclave)
		if err != nil {
			t.Fatal(err)
		}
		r, err := w.RunMain()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
		w.Close()
	}
	for i := 1; i < len(results); i++ {
		if !results[i].Equal(results[0]) {
			t.Fatalf("mode %d result %v != %v", i, results[i], results[0])
		}
	}
}

func TestGCConsistencySweep(t *testing.T) {
	w := bankWorld(t)
	if _, err := w.RunMain(); err != nil {
		t.Fatal(err)
	}
	if got := w.Trusted().Registry().Size(); got != 3 {
		t.Fatalf("registry size after main = %d, want 3", got)
	}
	// Main's frame is gone: collecting the untrusted heap kills the
	// proxies; one helper sweep must release all mirrors.
	if err := w.Untrusted().Collect(); err != nil {
		t.Fatal(err)
	}
	if err := w.SweepOnce(w.Untrusted()); err != nil {
		t.Fatalf("SweepOnce: %v", err)
	}
	if got := w.Trusted().Registry().Size(); got != 0 {
		t.Fatalf("registry size after sweep = %d, want 0", got)
	}
	if got := w.Untrusted().Stats().WeakListLen; got != 0 {
		t.Fatalf("weak list after sweep = %d, want 0", got)
	}
	// The sweep removal message crossed the boundary as one ecall.
	if w.Stats().Enclave.EcallsByID[9101] == 0 {
		t.Fatal("sweep did not transition into the enclave")
	}
	// And the mirrors are now actually collectable in the enclave.
	before := w.Trusted().HeapStats().LiveBytes
	if err := w.Trusted().Collect(); err != nil {
		t.Fatal(err)
	}
	after := w.Trusted().HeapStats().LiveBytes
	if after >= before {
		t.Fatalf("trusted heap %d -> %d, want mirrors reclaimed", before, after)
	}
}

// TestGCHelperThreads: started GC helpers start no goroutine; the
// collection that clears a dead proxy's weak reference is swept before
// Collect returns — the registry drained, the sweep stats recording it
// — and a collection that clears none is not swept.
func TestGCHelperThreads(t *testing.T) {
	w := bankWorld(t)
	if _, err := w.RunMain(); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	w.StartGCHelpers()
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("StartGCHelpers: %d goroutines, %d before", got, before)
	}
	if err := w.Untrusted().Collect(); err != nil {
		t.Fatal(err)
	}
	if got := w.Trusted().Registry().Size(); got != 0 {
		t.Fatalf("helper left %d mirrors registered", got)
	}
	st := w.Stats()
	us := st.UntrustedSweeps
	if us.Sweeps != 1 || us.Released == 0 || us.LastReleased != int(us.Released) || us.LastSweep.IsZero() {
		t.Fatalf("untrusted sweeps after one clearing collection: %+v", us)
	}
	if st.TrustedSweeps.Sweeps != 0 {
		t.Fatalf("trusted runtime swept with nothing cleared: %+v", st.TrustedSweeps)
	}
	// Nothing is left to clear: the next collection is not swept.
	if err := w.Untrusted().Collect(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().UntrustedSweeps; got != us {
		t.Fatalf("a collection that cleared nothing was swept: %+v, was %+v", got, us)
	}
}

// twoWayProgram extends the bank program with a trusted Auditor class
// whose method references Person, so the Person proxy is reachable in the
// trusted image and trusted->untrusted calls are possible.
func twoWayProgram(t testing.TB) *classmodel.Program {
	t.Helper()
	p := demo.MustBankProgram()
	auditor := classmodel.NewClass("Auditor", classmodel.Trusted)
	if err := auditor.AddMethod(&classmodel.Method{
		Name: classmodel.CtorName, Public: true,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return wire.Null(), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := auditor.AddMethod(&classmodel.Method{
		Name: "audit", Public: true, Returns: wire.KindString,
		Allocates: []string{demo.Person},
		Calls:     []classmodel.MethodRef{{Class: demo.Person, Method: "getName"}},
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			p, err := env.New(demo.Person, wire.Str("Dave"), wire.Int(1))
			if err != nil {
				return wire.Value{}, err
			}
			return env.Call(p, "getName")
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(auditor); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExecFromBothSides(t *testing.T) {
	w, _, err := core.NewPartitionedWorld(twoWayProgram(t), world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Untrusted code instantiates a trusted class -> ecall.
	err = w.Exec(false, func(env classmodel.Env) error {
		acct, err := env.New(demo.Account, wire.Str("Carol"), wire.Int(7))
		if err != nil {
			return err
		}
		bal, err := env.Call(acct, "getBalance")
		if err != nil {
			return err
		}
		if !bal.Equal(wire.Int(7)) {
			t.Errorf("balance = %v, want 7", bal)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Exec(untrusted): %v", err)
	}

	// Trusted code instantiates an untrusted class -> ocalls out of the
	// enclave (proxy ctor + getName RMI).
	before := w.Stats().Enclave.Ocalls
	err = w.Exec(true, func(env classmodel.Env) error {
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
	if err != nil {
		t.Fatalf("Exec(trusted): %v", err)
	}
	if w.Stats().Enclave.Ocalls <= before {
		t.Fatal("trusted->untrusted instantiation did not ocall")
	}
	// Dave's Person constructor itself instantiated a trusted Account,
	// whose mirror must be registered on the trusted side... and the
	// Person mirror on the untrusted side.
	if got := w.Untrusted().Registry().Size(); got < 1 {
		t.Fatalf("untrusted registry = %d, want >= 1 (Person mirror)", got)
	}
}

func TestStaleMirrorDetected(t *testing.T) {
	w := bankWorld(t)
	err := w.Exec(false, func(env classmodel.Env) error {
		acct, err := env.New(demo.Account, wire.Str("Eve"), wire.Int(1))
		if err != nil {
			return err
		}
		_, hash, _ := acct.AsRef()
		// Force-release the mirror (simulating a helper bug / premature
		// release) and then invoke through the proxy.
		if _, err := w.Trusted().Registry().Release(hash); err != nil {
			return err
		}
		_, callErr := env.Call(acct, "getBalance")
		if !errors.Is(callErr, world.ErrStaleMirror) {
			t.Errorf("err = %v, want ErrStaleMirror", callErr)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
}

func TestNeutralObjectsCrossByValueOnly(t *testing.T) {
	w := bankWorld(t)
	err := w.Exec(false, func(env classmodel.Env) error {
		list, err := env.New(classmodel.BuiltinList)
		if err != nil {
			return err
		}
		reg, err := env.New(demo.AccountRegistry)
		if err != nil {
			return err
		}
		// Passing a local List REFERENCE through a proxy call must be
		// rejected: neutral objects are serialized by value (§5.2).
		_, callErr := env.Call(reg, "addAccount", list)
		if !errors.Is(callErr, world.ErrNeutralByValue) {
			t.Errorf("err = %v, want ErrNeutralByValue", callErr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProxyCanonicalisation(t *testing.T) {
	w := bankWorld(t)
	err := w.Exec(false, func(env classmodel.Env) error {
		p, err := env.New(demo.Person, wire.Str("Frank"), wire.Int(10))
		if err != nil {
			return err
		}
		a1, err := env.Call(p, "getAccount")
		if err != nil {
			return err
		}
		a2, err := env.Call(p, "getAccount")
		if err != nil {
			return err
		}
		if !a1.Equal(a2) {
			t.Errorf("getAccount returned different refs: %v vs %v", a1, a2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only one proxy instance + one registry entry for Frank's account.
	if got := w.Untrusted().Stats().WeakListLen; got != 1 {
		t.Fatalf("weak list = %d, want 1 (canonical proxy)", got)
	}
	if got := w.Trusted().Registry().Size(); got != 1 {
		t.Fatalf("registry = %d, want 1", got)
	}
}

// TestRacingImportsReleaseEachExport: two imports of one hash that race
// make two proxies, each holding one of the two exports its senders
// made. A lookup by the hash finds a live one (Pin resolves it through
// the heap's weak table), and each proxy's death releases exactly one
// export: the first collection and helper sweep the unpinned one, the
// second, after Unpin, the other, and the trusted registry drains.
func TestRacingImportsReleaseEachExport(t *testing.T) {
	w := bankWorld(t)
	w.StartGCHelpers()
	var acct wire.Value
	err := w.Exec(true, func(env classmodel.Env) error {
		a, err := env.New(demo.Account, wire.Str("Ida"), wire.Int(7))
		if err != nil {
			return err
		}
		_, hash, _ := a.AsRef()
		acct = wire.Ref(demo.Account, hash)
		return w.Trusted().Pin(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	_, hash, _ := acct.AsRef()
	if err := w.Untrusted().ImportRacing(acct); err != nil {
		t.Fatal(err)
	}
	if got := w.Untrusted().Stats().WeakListLen; got != 2 {
		t.Fatalf("weak-tracked proxies = %d, want 2", got)
	}
	if err := w.Untrusted().Pin(acct); err != nil {
		t.Fatalf("Pin finds no live proxy of the raced hash: %v", err)
	}
	for i, want := range []struct {
		released uint64
		exported bool
	}{{1, true}, {2, false}} {
		if i == 1 {
			if err := w.Untrusted().Unpin(acct); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Untrusted().Collect(); err != nil {
			t.Fatal(err)
		}
		if got := w.Untrusted().SweepStats().Released; got != want.released {
			t.Fatalf("collection %d: Released = %d, want %d", i+1, got, want.released)
		}
		if _, ok := w.Trusted().Registry().Resolve(hash); ok != want.exported {
			t.Fatalf("collection %d: hash %d exported = %v, want %v", i+1, hash, ok, want.exported)
		}
	}
	if got := w.Trusted().Registry().Size(); got != 0 {
		t.Fatalf("registry = %d after both proxies died, want 0", got)
	}
	if got := w.Untrusted().Stats().WeakListLen; got != 0 {
		t.Fatalf("weak-tracked proxies = %d after the sweeps, want 0", got)
	}
}

func TestArityMismatch(t *testing.T) {
	w := bankWorld(t)
	err := w.Exec(false, func(env classmodel.Env) error {
		if _, err := env.New(demo.Account, wire.Str("x")); !errors.Is(err, world.ErrBadArity) {
			t.Errorf("short ctor args: err = %v, want ErrBadArity", err)
		}
		p, err := env.New(demo.Person, wire.Str("G"), wire.Int(1))
		if err != nil {
			return err
		}
		if _, err := env.Call(p, "getName", wire.Int(1)); !errors.Is(err, world.ErrBadArity) {
			t.Errorf("extra args: err = %v, want ErrBadArity", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClosedWorldViolation(t *testing.T) {
	// A method present in the source but with no call edge from any
	// entry point is pruned; invoking it at run time must fail.
	p := classmodel.NewProgram()
	c := classmodel.NewClass("App", classmodel.Untrusted)
	if err := c.AddMethod(&classmodel.Method{
		Name: classmodel.MainMethodName, Static: true, Public: true,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			// Undeclared call: "hidden" is not in Calls, so the image
			// pruned it.
			return env.CallStatic("App", "hidden")
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddMethod(&classmodel.Method{
		Name: "hidden", Static: true, Public: false,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return wire.Null(), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(c); err != nil {
		t.Fatal(err)
	}
	p.MainClass = "App"

	w, _, err := core.NewUnpartitionedWorld(p, world.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	_, err = w.RunMain()
	if !errors.Is(err, image.ErrClosedWorld) {
		t.Fatalf("err = %v, want ErrClosedWorld", err)
	}
}

func TestFileIOThroughShim(t *testing.T) {
	w := bankWorld(t)
	// Trusted writes relay through ocalls.
	before := w.Stats().Enclave.Ocalls
	err := w.Exec(true, func(env classmodel.Env) error {
		if !env.Trusted() {
			t.Error("Exec(true) ran untrusted")
		}
		for i := 0; i < 4; i++ {
			if _, err := env.FS().Append("log.txt", []byte("entry\n")); err != nil {
				return err
			}
		}
		data, err := env.FS().ReadAt("log.txt", 0, 6)
		if err != nil {
			return err
		}
		if string(data) != "entry\n" {
			t.Errorf("read %q", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Enclave.Ocalls - before; got < 5 {
		t.Fatalf("shim ocalls = %d, want >= 5 (4 appends + 1 read)", got)
	}
	if w.Stats().Shim.Ocalls < 5 {
		t.Fatalf("shim stats = %+v", w.Stats().Shim)
	}

	// Untrusted writes go straight to the host FS — no transitions.
	beforeE, beforeO := w.Stats().Enclave.Ecalls, w.Stats().Enclave.Ocalls
	err = w.Exec(false, func(env classmodel.Env) error {
		_, aerr := env.FS().Append("ulog.txt", []byte("direct"))
		return aerr
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats().Enclave.Ecalls != beforeE || w.Stats().Enclave.Ocalls != beforeO {
		t.Fatal("untrusted file I/O crossed the boundary")
	}
	// Both files visible on the host FS.
	if _, err := w.HostFS().Size("log.txt"); err != nil {
		t.Fatalf("log.txt: %v", err)
	}
	if _, err := w.HostFS().Size("ulog.txt"); err != nil {
		t.Fatalf("ulog.txt: %v", err)
	}
}

func TestMainMustBeUntrusted(t *testing.T) {
	p := classmodel.NewProgram()
	c := classmodel.NewClass("TrustedMain", classmodel.Trusted)
	if err := c.AddMethod(&classmodel.Method{
		Name: classmodel.MainMethodName, Static: true, Public: true,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return wire.Null(), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(c); err != nil {
		t.Fatal(err)
	}
	p.MainClass = "TrustedMain"
	_, _, err := core.NewPartitionedWorld(p, world.DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "untrusted image") {
		t.Fatalf("err = %v, want main-in-untrusted error", err)
	}
}

func TestTrustedImageExcludesUntrustedBodies(t *testing.T) {
	_, build, err := core.NewPartitionedWorld(demo.MustBankProgram(), world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tProg := build.TrustedImage.Program()
	// Person exists in the trusted set only as a proxy.
	person, ok := tProg.Class(demo.Person)
	if !ok {
		t.Fatal("Person missing from trusted set")
	}
	if !person.Proxy {
		t.Fatal("Person in trusted set is not a proxy")
	}
	for _, m := range person.Methods {
		if m.Body != nil {
			t.Fatalf("proxy method %s has a concrete body", m.Name)
		}
	}
	// Account in the trusted set is concrete with relays.
	acct, _ := tProg.Class(demo.Account)
	if acct.Proxy {
		t.Fatal("Account in trusted set is a proxy")
	}
	if _, ok := acct.Method("relay$updateBalance"); !ok {
		t.Fatal("Account missing relay method")
	}
	// §5.3: "proxy class Person will not be included inside the trusted
	// image since it is not reachable from any of the trusted classes."
	if _, err := build.TrustedImage.ClassID(demo.Person); !errors.Is(err, image.ErrClosedWorld) {
		t.Fatalf("Person proxy not pruned from trusted image: %v", err)
	}
	if build.TrustedImage.Report().ProxiesPruned == 0 {
		t.Fatal("no proxies pruned from trusted image")
	}
}
