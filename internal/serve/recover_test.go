package serve

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/persist"
	"montsalvat/internal/sgx"
	"montsalvat/internal/shim"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// recoverableKV is the full durable-gateway harness: a served KVStore
// whose puts are journaled through a persist.Manager, with the restore
// callback that Server.Recover drives after an enclave kill.
type recoverableKV struct {
	w      *world.World
	srv    *Server
	addr   string
	cfg    ClientConfig
	kv     *persist.WorldKV
	fs     shim.FS
	secret sgx.PlatformSecret
	ctrs   *sgx.MemCounterStore

	mu  sync.Mutex
	mgr *persist.Manager
}

func (r *recoverableKV) manager() *persist.Manager {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mgr
}

// openManager builds a Manager over the harness's durable storage and
// the world's current enclave.
func (r *recoverableKV) openManager(t *testing.T) *persist.Manager {
	t.Helper()
	ctr, err := sgx.NewMonotonicCounter(r.secret, r.ctrs, "gateway-kv")
	if err != nil {
		t.Fatal(err)
	}
	m, err := persist.Open(persist.Options{
		FS:      r.fs,
		Enclave: r.w.Enclave(),
		Secret:  r.secret,
		Counter: ctr,
		Dir:     "p/",
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newStore creates and pins a fresh KVStore in the (current) enclave.
func (r *recoverableKV) newStore(t *testing.T) wire.Value {
	t.Helper()
	var ref wire.Value
	err := r.w.Exec(false, func(env classmodel.Env) error {
		v, err := env.New(demo.KVStoreCls)
		if err != nil {
			return err
		}
		ref = v
		return nil
	})
	if err != nil {
		t.Fatalf("new KVStore: %v", err)
	}
	if err := r.w.Untrusted().Pin(ref); err != nil {
		t.Fatalf("pin: %v", err)
	}
	return ref
}

// restore is the Server.Recover callback: kill+restart the world,
// rebuild the store, and recover durable state into it.
func (r *recoverableKV) restore(t *testing.T) func() error {
	return func() error {
		r.w.Kill()
		if err := r.w.Restart(); err != nil {
			return err
		}
		r.kv.SetRef(r.newStore(t))
		m := r.openManager(t)
		if err := m.Register(r.kv); err != nil {
			return err
		}
		rep, err := m.Recover()
		if err != nil {
			return err
		}
		t.Logf("gateway recovery: %s", rep)
		r.mu.Lock()
		r.mgr = m
		r.mu.Unlock()
		return nil
	}
}

func startRecoverableKV(t *testing.T) *recoverableKV {
	t.Helper()
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	secret, err := sgx.NewPlatformSecret()
	if err != nil {
		w.Close()
		t.Fatal(err)
	}
	r := &recoverableKV{
		w:      w,
		fs:     shim.NewMemFS(),
		secret: secret,
		ctrs:   sgx.NewMemCounterStore(),
	}
	r.kv = persist.NewWorldKV("kv", w)
	r.kv.SetRef(r.newStore(t))
	m := r.openManager(t)
	if err := m.Register(r.kv); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	r.mgr = m

	platform := sgx.NewPlatformFromSeed([]byte("serve-recover-test"))
	srv, err := New(Options{
		World:    w,
		Platform: platform,
		Logf:     t.Logf,
		// Journal KVStore puts: key and value are the two string args.
		Journal: func(mu Mutation, complete func(error)) {
			if mu.Op != opCall || mu.Class != demo.KVStoreCls || mu.Method != "put" {
				complete(nil)
				return
			}
			key, _ := mu.Args[0].AsStr()
			val, _ := mu.Args[1].AsStr()
			_, err := r.manager().Append("kv", persist.OpPut, key, []byte(val))
			complete(err)
		},
	})
	if err != nil {
		w.Close()
		t.Fatal(err)
	}
	srv.Export("kv", func(env classmodel.Env) (wire.Value, error) {
		ref := r.kv.Ref()
		if ref.IsNull() {
			return wire.Value{}, errors.New("store not initialised")
		}
		return ref, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.Close()
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
		w.Close()
	})
	r.srv = srv
	r.addr = ln.Addr().String()
	r.cfg = ClientConfig{Platform: platform, Measurement: srv.Measurement()}
	return r
}

// TestGatewayCrashRecovery is the serving-layer crash matrix exit: a
// live attested client writes through the gateway, the enclave dies and
// recovers mid-service, the old session is invalidated, and a fresh
// session re-binds the store by name and reads every acked write back.
func TestGatewayCrashRecovery(t *testing.T) {
	r := startRecoverableKV(t)

	c, err := Dial(r.addr, r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.Bind("kv")
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	writes := map[string]string{
		"alice": "balance=75",
		"bob":   "balance=50",
		"carol": "balance=10",
	}
	for k, v := range writes {
		if _, err := c.Call(h, "put", wire.Str(k), wire.Str(v)); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
	}

	// The crash/recovery cycle. A handshake attempted mid-recovery gets
	// the typed retry signal, not a hang or a half-built enclave.
	restore := r.restore(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = r.srv.Recover(ctx, func() error {
		if _, dialErr := Dial(r.addr, r.cfg); !errors.Is(dialErr, ErrRecovering) {
			t.Errorf("dial during recovery: %v, want ErrRecovering", dialErr)
		}
		return restore()
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}

	// The old session died with the old enclave: its key and handles
	// cannot outlive the incarnation that attested them.
	if _, err := c.Call(h, "get", wire.Str("alice")); err == nil {
		t.Fatal("pre-crash session survived recovery")
	}

	// A fresh session attests the new enclave (same measurement — same
	// image, same signer) and re-binds the recovered store by name.
	c2, err := Dial(r.addr, r.cfg)
	if err != nil {
		t.Fatalf("dial after recovery: %v", err)
	}
	defer c2.Close()
	h2, err := c2.Bind("kv")
	if err != nil {
		t.Fatalf("re-bind: %v", err)
	}
	for k, want := range writes {
		v, err := c2.Call(h2, "get", wire.Str(k))
		if err != nil {
			t.Fatalf("get %q after recovery: %v", k, err)
		}
		if got, _ := v.AsStr(); got != want {
			t.Errorf("recovered %q = %q, want %q", k, got, want)
		}
	}
	// And the recovered gateway keeps serving durable writes.
	if _, err := c2.Call(h2, "put", wire.Str("dave"), wire.Str("balance=5")); err != nil {
		t.Fatalf("put after recovery: %v", err)
	}

	s := r.srv.Stats()
	if s.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", s.Recoveries)
	}
	if s.Recovering {
		t.Error("gateway still marked recovering")
	}
	if s.RejectedRecovering == 0 {
		t.Error("mid-recovery dial was not counted as a recovering rejection")
	}
}

// TestGatewaySecondRecovery proves the cycle is repeatable: two crashes
// back to back, state intact after both.
func TestGatewaySecondRecovery(t *testing.T) {
	r := startRecoverableKV(t)
	ctx := context.Background()

	put := func(k, v string) {
		t.Helper()
		c, err := Dial(r.addr, r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		h, err := c.Bind("kv")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call(h, "put", wire.Str(k), wire.Str(v)); err != nil {
			t.Fatal(err)
		}
	}
	put("k1", "v1")
	if err := r.srv.Recover(ctx, r.restore(t)); err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	put("k2", "v2")
	if err := r.srv.Recover(ctx, r.restore(t)); err != nil {
		t.Fatalf("second recovery: %v", err)
	}

	c, err := Dial(r.addr, r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.Bind("kv")
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"k1": "v1", "k2": "v2"} {
		v, err := c.Call(h, "get", wire.Str(k))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := v.AsStr(); got != want {
			t.Errorf("%q = %q, want %q (after two recoveries)", k, got, want)
		}
	}
	if got := r.srv.Stats().Recoveries; got != 2 {
		t.Errorf("Recoveries = %d, want 2", got)
	}
}

// TestJournalErrorWithholdsAck: when the durability hook fails, the
// client must not see success — the mutation executed but is not
// durable.
func TestJournalErrorWithholdsAck(t *testing.T) {
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	platform := sgx.NewPlatformFromSeed([]byte("journal-fail-test"))
	srv, err := New(Options{
		World:    w,
		Platform: platform,
		// Completing off the worker's goroutine is the hook's contract:
		// the request parks until complete fires.
		Journal: func(m Mutation, complete func(error)) {
			go func() {
				if m.Method == "put" {
					complete(errors.New("disk full"))
					return
				}
				complete(nil)
			}()
		},
	})
	if err != nil {
		w.Close()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.Close()
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-serveDone
		w.Close()
	})

	c, err := Dial(ln.Addr().String(), ClientConfig{Platform: platform, Measurement: srv.Measurement()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.New(demo.KVStoreCls)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Call(h, "put", wire.Str("k"), wire.Str("v"))
	var app *AppError
	if !errors.As(err, &app) {
		t.Fatalf("put with failing journal: %v, want AppError", err)
	}
	// Reads (not journaled) still work: the session survives.
	if _, err := c.Call(h, "get", wire.Str("k")); err != nil {
		t.Fatalf("get after journal failure: %v", err)
	}
}

// TestBindUnknownName pins the typed error for unexported names.
func TestBindUnknownName(t *testing.T) {
	r := startRecoverableKV(t)
	c, err := Dial(r.addr, r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Bind("nope"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bind unknown: %v, want ErrBadRequest", err)
	}
}
