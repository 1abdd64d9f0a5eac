package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/sgx"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// startServer boots a partitioned world for prog and serves it on a
// loopback listener. It returns the server, its address and a client
// config whose platform/measurement match.
func startServer(t testing.TB, prog *classmodel.Program, opts Options) (*Server, string, ClientConfig) {
	t.Helper()
	w, _, err := core.NewPartitionedWorld(prog, world.DefaultOptions())
	if err != nil {
		t.Fatalf("build world: %v", err)
	}
	platform := sgx.NewPlatformFromSeed([]byte("serve-test-platform"))
	opts.World = w
	opts.Platform = platform
	srv, err := New(opts)
	if err != nil {
		w.Close()
		t.Fatalf("new server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.Close()
		t.Fatalf("listen: %v", err)
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
	cfg := ClientConfig{
		Platform:    platform,
		Measurement: srv.Measurement(),
	}
	return srv, ln.Addr().String(), cfg
}

// slowProgram defines a trusted class whose method blocks for a caller
// chosen duration — the workload for overload/deadline/drain tests.
func slowProgram(t *testing.T) *classmodel.Program {
	t.Helper()
	p := classmodel.NewProgram()
	slow := classmodel.NewClass("Slow", classmodel.Trusted)
	if err := slow.AddMethod(&classmodel.Method{
		Name: classmodel.CtorName, Public: true,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return wire.Null(), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := slow.AddMethod(&classmodel.Method{
		Name: "work", Public: true,
		Params:  []classmodel.Param{{Name: "ms", Kind: wire.KindInt}},
		Returns: wire.KindInt,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			ms, _ := args[0].AsInt()
			time.Sleep(time.Duration(ms) * time.Millisecond)
			return wire.Int(ms), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(slow); err != nil {
		t.Fatal(err)
	}
	driver := classmodel.NewClass("Driver", classmodel.Untrusted)
	if err := driver.AddMethod(&classmodel.Method{
		Name: classmodel.MainMethodName, Static: true, Public: true,
		Returns:   wire.KindInt,
		Allocates: []string{"Slow"},
		Calls:     []classmodel.MethodRef{{Class: "Slow", Method: "work"}},
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			s, err := env.New("Slow")
			if err != nil {
				return wire.Null(), err
			}
			return env.Call(s, "work", wire.Int(0))
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(driver); err != nil {
		t.Fatal(err)
	}
	p.MainClass = "Driver"
	return p
}

// TestServeHandshakeOnKilledWorld: a fabric kill destroys the enclave
// before it closes the gateway's listener, so a dial can land in
// between. It must fail as a handshake failure, not crash the gateway on
// the missing enclave.
func TestServeHandshakeOnKilledWorld(t *testing.T) {
	srv, addr, cfg := startServer(t, demo.MustKVProgram(), Options{})
	srv.w.Kill()
	if c, err := Dial(addr, cfg); !errors.Is(err, ErrHandshake) {
		if c != nil {
			c.Close()
		}
		t.Fatalf("dial on a killed world: %v, want ErrHandshake", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().HandshakeFailures != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("handshake failures = %d, want 1", srv.Stats().HandshakeFailures)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeKVSession drives one attested session end to end: create a
// store, put/get through the enclave, release, close.
func TestServeKVSession(t *testing.T) {
	srv, addr, cfg := startServer(t, demo.MustKVProgram(), Options{})
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	store, err := c.New(demo.KVStoreCls)
	if err != nil {
		t.Fatalf("new store: %v", err)
	}
	if _, err := c.Call(store, "put", wire.Str("alice"), wire.Str("wonderland")); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, err := c.Call(store, "get", wire.Str("alice"))
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if s, _ := got.AsStr(); s != "wonderland" {
		t.Fatalf("get = %v, want wonderland", got)
	}
	miss, err := c.Call(store, "get", wire.Str("nobody"))
	if err != nil {
		t.Fatalf("get miss: %v", err)
	}
	if !miss.IsNull() {
		t.Fatalf("miss = %v, want null", miss)
	}
	size, err := c.Call(store, "size")
	if err != nil {
		t.Fatalf("size: %v", err)
	}
	if n, _ := size.AsInt(); n != 1 {
		t.Fatalf("size = %d, want 1", n)
	}
	if err := c.Release(store); err != nil {
		t.Fatalf("release: %v", err)
	}
	// A released handle is gone.
	if _, err := c.Call(store, "size"); !errors.Is(err, ErrForeignRef) {
		t.Fatalf("call after release: %v, want ErrForeignRef", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	st := srv.Stats()
	if st.HandshakeFailures != 0 {
		t.Fatalf("handshake failures = %d, want 0", st.HandshakeFailures)
	}
	if st.Sessions != 1 {
		t.Fatalf("sessions = %d, want 1", st.Sessions)
	}
}

// TestServeManyConcurrentSessions runs 32 attested sessions in parallel,
// each with a private KVStore, and checks full isolation of their data.
func TestServeManyConcurrentSessions(t *testing.T) {
	const sessions = 32
	const requests = 8
	srv, addr, cfg := startServer(t, demo.MustKVProgram(), Options{
		MaxSessions: sessions,
		MaxInFlight: 16,
		// Every session may have a request waiting for a slot at once,
		// and a waiter is still counted for an instant after it gets
		// one: the default depth (MaxInFlight) is exactly that edge.
		QueueDepth: sessions,
	})

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				c, err := Dial(addr, cfg)
				if err != nil {
					return fmt.Errorf("dial: %w", err)
				}
				defer c.Close()
				store, err := c.New(demo.KVStoreCls)
				if err != nil {
					return fmt.Errorf("new: %w", err)
				}
				for r := 0; r < requests; r++ {
					key := wire.Str(fmt.Sprintf("key-%d", r))
					val := wire.Str(fmt.Sprintf("session-%d-val-%d", i, r))
					if _, err := c.Call(store, "put", key, val); err != nil {
						return fmt.Errorf("put: %w", err)
					}
				}
				for r := 0; r < requests; r++ {
					got, err := c.Call(store, "get", wire.Str(fmt.Sprintf("key-%d", r)))
					if err != nil {
						return fmt.Errorf("get: %w", err)
					}
					want := fmt.Sprintf("session-%d-val-%d", i, r)
					if s, _ := got.AsStr(); s != want {
						return fmt.Errorf("get = %q, want %q (cross-session leak?)", s, want)
					}
				}
				size, err := c.Call(store, "size")
				if err != nil {
					return fmt.Errorf("size: %w", err)
				}
				if n, _ := size.AsInt(); n != requests {
					return fmt.Errorf("size = %d, want %d", n, requests)
				}
				return nil
			}()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.SessionsTotal != sessions {
		t.Fatalf("sessions total = %d, want %d", st.SessionsTotal, sessions)
	}
	if st.HandshakeFailures != 0 {
		t.Fatalf("handshake failures = %d, want 0", st.HandshakeFailures)
	}
	if st.PeakInFlight > 16 {
		t.Fatalf("peak in-flight = %d, exceeds MaxInFlight 16", st.PeakInFlight)
	}
}

// TestServeCrossSessionIsolation checks that one session's handles are
// meaningless in another: proxy access with a foreign handle is rejected
// before it reaches the world.
func TestServeCrossSessionIsolation(t *testing.T) {
	srv, addr, cfg := startServer(t, demo.MustKVProgram(), Options{})
	a, err := Dial(addr, cfg)
	if err != nil {
		t.Fatalf("dial a: %v", err)
	}
	defer a.Close()
	b, err := Dial(addr, cfg)
	if err != nil {
		t.Fatalf("dial b: %v", err)
	}
	defer b.Close()

	store, err := a.New(demo.KVStoreCls)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if _, err := a.Call(store, "put", wire.Str("secret"), wire.Str("owned-by-a")); err != nil {
		t.Fatalf("put: %v", err)
	}

	// B replays A's handle: as a receiver, as a release target, and as
	// an argument. All must be rejected as foreign.
	if _, err := b.Call(store, "get", wire.Str("secret")); !errors.Is(err, ErrForeignRef) {
		t.Fatalf("foreign call: %v, want ErrForeignRef", err)
	}
	if err := b.Release(store); !errors.Is(err, ErrForeignRef) {
		t.Fatalf("foreign release: %v, want ErrForeignRef", err)
	}
	bStore, err := b.New(demo.KVStoreCls)
	if err != nil {
		t.Fatalf("new b: %v", err)
	}
	// Handles are namespaced per session, so A's handle number resolves
	// to B's own object (if any) — never to A's. A handle B's namespace
	// never issued is rejected even buried inside an argument.
	never := Handle{Class: demo.KVStoreCls, ID: store.ID + 1000}
	if _, err := b.Call(bStore, "put", wire.Str("k"), never.Value()); !errors.Is(err, ErrForeignRef) {
		t.Fatalf("foreign argument: %v, want ErrForeignRef", err)
	}
	// A's data is untouched.
	got, err := a.Call(store, "get", wire.Str("secret"))
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if s, _ := got.AsStr(); s != "owned-by-a" {
		t.Fatalf("get = %q, want owned-by-a", s)
	}
	if st := srv.Stats(); st.RejectedForeign < 3 {
		t.Fatalf("rejected foreign = %d, want >= 3", st.RejectedForeign)
	}
}

// TestServeOverload saturates a tiny admission window and checks that
// overflow turns into typed ErrOverloaded rejections while concurrency
// stays bounded.
func TestServeOverload(t *testing.T) {
	const sessions = 8
	srv, addr, cfg := startServer(t, slowProgram(t), Options{
		MaxInFlight:     2,
		QueueDepth:      1,
		SessionInFlight: 4,
		MaxSessions:     sessions,
	})

	clients := make([]*Client, sessions)
	handles := make([]Handle, sessions)
	for i := range clients {
		c, err := Dial(addr, cfg)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer c.Close()
		h, err := c.New("Slow")
		if err != nil {
			t.Fatalf("new %d: %v", i, err)
		}
		clients[i], handles[i] = c, h
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]error, sessions)
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, results[i] = clients[i].Call(handles[i], "work", wire.Int(400))
		}(i)
	}
	close(start)
	wg.Wait()

	var ok, overloaded int
	for i, err := range results {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			overloaded++
		default:
			t.Fatalf("call %d: unexpected error %v", i, err)
		}
	}
	if ok < 2 {
		t.Fatalf("successes = %d, want >= 2", ok)
	}
	if overloaded < 1 {
		t.Fatalf("overloaded = %d, want >= 1 (ok=%d)", overloaded, ok)
	}
	st := srv.Stats()
	if st.PeakInFlight > 2 {
		t.Fatalf("peak in-flight = %d, exceeds MaxInFlight 2", st.PeakInFlight)
	}
	if st.RejectedOverload == 0 {
		t.Fatal("no overload rejections counted")
	}
}

// TestServeDeadline propagates a short client budget: queued behind a
// long request with MaxInFlight=1, it must be rejected with ErrDeadline.
func TestServeDeadline(t *testing.T) {
	srv, addr, cfg := startServer(t, slowProgram(t), Options{
		MaxInFlight: 1,
		QueueDepth:  4,
	})
	a, err := Dial(addr, cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer a.Close()
	b, err := Dial(addr, cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer b.Close()
	ha, err := a.New("Slow")
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	hb, err := b.New("Slow")
	if err != nil {
		t.Fatalf("new: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := a.Call(ha, "work", wire.Int(600))
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the long call occupy the slot
	if _, err := b.CallTimeout(150*time.Millisecond, hb, "work", wire.Int(10)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("queued call: %v, want ErrDeadline", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("long call: %v", err)
	}
	if st := srv.Stats(); st.RejectedDeadline == 0 {
		t.Fatal("no deadline rejections counted")
	}
}

// TestServeDrain checks graceful shutdown: in-flight work completes, new
// work is rejected with ErrDraining, new connections are refused, and
// Shutdown surfaces cleanly.
func TestServeDrain(t *testing.T) {
	srv, addr, cfg := startServer(t, slowProgram(t), Options{MaxInFlight: 4})
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	h, err := c.New("Slow")
	if err != nil {
		t.Fatalf("new: %v", err)
	}

	inFlight := make(chan error, 1)
	go func() {
		_, err := c.Call(h, "work", wire.Int(400))
		inFlight <- err
	}()
	time.Sleep(100 * time.Millisecond)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond)

	// Work submitted during the drain gets a typed rejection (the
	// session connection may already be closed near the end of the
	// drain, which surfaces as a connection error instead).
	if _, err := c.Call(h, "work", wire.Int(10)); err == nil {
		t.Fatal("call during drain succeeded, want rejection")
	} else if !errors.Is(err, ErrDraining) && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrDeadline) {
		t.Logf("drain-time call error: %v", err)
	}
	// The request admitted before the drain completes normally.
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight call during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The gateway no longer accepts sessions.
	if _, err := Dial(addr, cfg); err == nil {
		t.Fatal("dial after shutdown succeeded")
	}
}

// TestServeHandshakeFailures counts attestation failures: a client on
// the wrong attestation platform must refuse the quote, and garbage on
// the wire must be dropped; both increment HandshakeFailures.
func TestServeHandshakeFailures(t *testing.T) {
	srv, addr, cfg := startServer(t, demo.MustKVProgram(), Options{})

	// Wrong platform: quote MAC does not verify; the client aborts.
	bad := cfg
	bad.Platform = sgx.NewPlatformFromSeed([]byte("some-other-platform"))
	if _, err := Dial(addr, bad); !errors.Is(err, ErrHandshake) {
		t.Fatalf("wrong platform dial: %v, want ErrHandshake", err)
	}

	// Wrong measurement: quote verifies but identity mismatches.
	bad = cfg
	bad.Measurement[0] ^= 0xFF
	if _, err := Dial(addr, bad); !errors.Is(err, ErrHandshake) {
		t.Fatalf("wrong measurement dial: %v, want ErrHandshake", err)
	}

	// Garbage hello: not even a frame.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	_, _ = conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00})
	_ = conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.Stats().HandshakeFailures >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("handshake failures = %d, want >= 3", srv.Stats().HandshakeFailures)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A good client still gets through.
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatalf("good dial after failures: %v", err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

// TestServeSessionLimit bounds concurrent sessions with a typed error.
func TestServeSessionLimit(t *testing.T) {
	_, addr, cfg := startServer(t, demo.MustKVProgram(), Options{MaxSessions: 1})
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := Dial(addr, cfg); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("second dial: %v, want ErrSessionLimit", err)
	}
}

// TestServeTeardownReleases checks that closing a session releases its
// objects through the GC path: the untrusted sweep observes the dead
// proxies once the session's pins are dropped.
func TestServeTeardownReleases(t *testing.T) {
	srv, addr, cfg := startServer(t, demo.MustKVProgram(), Options{})
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	store, err := c.New(demo.KVStoreCls)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Call(store, "put", wire.Str(fmt.Sprintf("k%d", i)), wire.Str("v")); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Teardown runs on the server's connection goroutine: wait for the
	// session to drop and its sweep to release the dead proxies.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ws := srv.w.Stats()
		if srv.Stats().Sessions == 0 && ws.UntrustedSweeps.Released > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("teardown did not release: sessions=%d released=%d",
				srv.Stats().Sessions, ws.UntrustedSweeps.Released)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeClassGuards rejects builtin, unknown and unserved classes.
func TestServeClassGuards(t *testing.T) {
	_, addr, cfg := startServer(t, demo.MustKVProgram(), Options{
		Classes: []string{demo.KVStoreCls},
	})
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.New("List"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("builtin new: %v, want ErrBadRequest", err)
	}
	if _, err := c.New("NoSuchClass"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown new: %v, want ErrBadRequest", err)
	}
	if _, err := c.New(demo.KVEntry, wire.Str("k"), wire.Str("v")); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unserved new: %v, want ErrBadRequest", err)
	}
	if _, err := c.New(demo.KVStoreCls); err != nil {
		t.Fatalf("served new: %v", err)
	}
}

// TestServeWrongShardRedirect drives the partition-predicate hook end
// to end: a gateway configured to own only even-length keys rejects the
// rest with a typed *WrongShardError that survives the wire — the
// client can extract the owning shard and table epoch for its refresh,
// and errors.Is(err, ErrWrongShard) holds. Reads and writes both hit
// the predicate; no rejected request reaches the world.
func TestServeWrongShardRedirect(t *testing.T) {
	shardCheck := func(op, class, method string, args []wire.Value) error {
		if class != demo.KVStoreCls {
			return nil
		}
		if op == opCall && method != "put" && method != "get" {
			return nil
		}
		if len(args) == 0 {
			return nil
		}
		key, ok := args[0].AsStr()
		if !ok {
			return nil
		}
		if len(key)%2 != 0 {
			return &WrongShardError{Owner: 3, Epoch: 7}
		}
		return nil
	}
	srv, addr, cfg := startServer(t, demo.MustKVProgram(), Options{ShardCheck: shardCheck})
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	store, err := c.New(demo.KVStoreCls)
	if err != nil {
		t.Fatalf("new store: %v", err)
	}
	// Owned key: served normally.
	if _, err := c.Call(store, "put", wire.Str("ab"), wire.Str("1")); err != nil {
		t.Fatalf("owned put: %v", err)
	}
	// Foreign key: typed redirect with the owner and epoch intact.
	_, err = c.Call(store, "put", wire.Str("abc"), wire.Str("2"))
	if !errors.Is(err, ErrWrongShard) {
		t.Fatalf("foreign put: %v, want ErrWrongShard", err)
	}
	var ws *WrongShardError
	if !errors.As(err, &ws) {
		t.Fatalf("foreign put error %v does not carry *WrongShardError", err)
	}
	if ws.Owner != 3 || ws.Epoch != 7 {
		t.Fatalf("redirect = %+v, want owner 3 epoch 7", ws)
	}
	// Reads redirect too — a stale client must not read stale shards.
	if _, err := c.Call(store, "get", wire.Str("abc")); !errors.Is(err, ErrWrongShard) {
		t.Fatalf("foreign get: %v, want ErrWrongShard", err)
	}
	// The rejected put never executed: the key is absent on the owned path.
	if v, err := c.Call(store, "get", wire.Str("ab")); err != nil {
		t.Fatalf("get owned: %v", err)
	} else if s, _ := v.AsStr(); s != "1" {
		t.Fatalf("owned value = %v", v)
	}
	st := srv.Stats()
	if st.RejectedWrongShard != 2 {
		t.Fatalf("RejectedWrongShard = %d, want 2", st.RejectedWrongShard)
	}
	if st.AppErrors != 0 {
		t.Fatalf("AppErrors = %d, want 0 (redirects are not app errors)", st.AppErrors)
	}
}
