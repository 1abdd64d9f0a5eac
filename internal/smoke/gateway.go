package smoke

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/demo"
	"montsalvat/internal/persist"
	"montsalvat/internal/serve"
	"montsalvat/internal/sgx"
	"montsalvat/internal/shim"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// GatewayOptions configures an in-process gateway bring-up.
type GatewayOptions struct {
	// World is the caller-owned World the gateway serves. StartGateway
	// never closes it.
	World *world.World
	// Platform is the attestation platform sessions handshake against.
	Platform *sgx.Platform
	// Telemetry, when set, is handed to the server and the persist
	// manager.
	Telemetry *telemetry.Telemetry
	// Durable journals acked KVStore puts through a persist.Manager
	// over FS and exports the recovered store as "kv". Without it the
	// gateway serves the world as-is (no export, no journal).
	Durable bool
	// FS is the untrusted durable storage (default: fresh MemFS).
	FS shim.FS
}

// Gateway is a served enclave world on an ephemeral loopback port,
// optionally wired to a durable store: the in-process fixture the
// served tests, the benchmark harness and the orderly gateway driver
// all share.
type Gateway struct {
	W   *serve.Server
	fs  shim.FS
	wld *world.World

	opts   GatewayOptions
	addr   string
	done   chan error
	secret sgx.PlatformSecret
	ctrs   *sgx.MemCounterStore
	kv     *persist.WorldKV

	mu  sync.Mutex
	mgr *persist.Manager
}

// StartGateway builds the serving stack: optional durable store and
// manager, server with the put-journaling hook, listener, and the
// serve goroutine. On success the gateway is accepting sessions.
func StartGateway(opts GatewayOptions) (*Gateway, error) {
	if opts.World == nil {
		return nil, errors.New("smoke: GatewayOptions.World is required")
	}
	if opts.Platform == nil {
		return nil, errors.New("smoke: GatewayOptions.Platform is required")
	}
	g := &Gateway{wld: opts.World, opts: opts, fs: opts.FS}
	if g.fs == nil {
		g.fs = shim.NewMemFS()
	}
	sopts := serve.Options{
		World:     opts.World,
		Platform:  opts.Platform,
		Telemetry: opts.Telemetry,
	}
	if opts.Durable {
		secret, err := sgx.NewPlatformSecret()
		if err != nil {
			return nil, err
		}
		g.secret = secret
		g.ctrs = sgx.NewMemCounterStore()
		g.kv = persist.NewWorldKV("kv", opts.World)
		if err := g.bootStore(); err != nil {
			return nil, err
		}
		sopts.Journal = func(m serve.Mutation, complete func(error)) {
			if m.Op != serve.MutationCall || m.Class != demo.KVStoreCls || m.Method != "put" {
				complete(nil)
				return
			}
			key, _ := m.Args[0].AsStr()
			val, _ := m.Args[1].AsStr()
			_, err := g.Manager().Append("kv", persist.OpPut, key, []byte(val))
			complete(err)
		}
	}
	srv, err := serve.New(sopts)
	if err != nil {
		return nil, err
	}
	if opts.Durable {
		srv.Export("kv", func(env classmodel.Env) (wire.Value, error) {
			ref := g.kv.Ref()
			if ref.IsNull() {
				return wire.Value{}, errors.New("store not initialised")
			}
			return ref, nil
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g.W = srv
	g.addr = ln.Addr().String()
	g.done = make(chan error, 1)
	go func() { g.done <- srv.Serve(ln) }()
	return g, nil
}

// Addr is the gateway's bound address.
func (g *Gateway) Addr() string { return g.addr }

// ClientConfig is the attested session configuration pinned to this
// gateway's measurement.
func (g *Gateway) ClientConfig() serve.ClientConfig {
	return serve.ClientConfig{Platform: g.opts.Platform, Measurement: g.W.Measurement()}
}

// Manager returns the current persist manager (nil when not durable).
// The manager is swapped on every recovery, so callers must not cache
// it across a crash.
func (g *Gateway) Manager() *persist.Manager {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.mgr
}

// bootStore wires the durable side to the world's current enclave
// incarnation: fresh pinned store object, fresh manager over the same
// untrusted files and counter store, recovery replay.
func (g *Gateway) bootStore() error {
	var ref wire.Value
	err := g.wld.Exec(false, func(env classmodel.Env) error {
		v, err := env.New(demo.KVStoreCls)
		if err != nil {
			return err
		}
		ref = v
		return nil
	})
	if err != nil {
		return err
	}
	if err := g.wld.Untrusted().Pin(ref); err != nil {
		return err
	}
	g.kv.SetRef(ref)
	ctr, err := sgx.NewMonotonicCounter(g.secret, g.ctrs, "gateway-kv")
	if err != nil {
		return err
	}
	popts := persist.Options{
		FS:      g.fs,
		Enclave: g.wld.Enclave(),
		Secret:  g.secret,
		Counter: ctr,
		Dir:     "p/",
	}
	if g.opts.Telemetry != nil {
		popts.Telemetry = g.opts.Telemetry.Registry()
	}
	m, err := persist.Open(popts)
	if err != nil {
		return err
	}
	if err := m.Register(g.kv); err != nil {
		return err
	}
	if _, err := m.Recover(); err != nil {
		return err
	}
	g.mu.Lock()
	g.mgr = m
	g.mu.Unlock()
	return nil
}

// Restore is the simulated machine restart: enclave teardown, rebuild,
// durable state recovery. It is the standard Server.Recover callback
// body.
func (g *Gateway) Restore() error {
	g.wld.Kill()
	if err := g.wld.Restart(); err != nil {
		return err
	}
	return g.bootStore()
}

// AssertRecoveringRejected dials the draining gateway and fails unless
// the session is rejected with the typed retry signal — the "no
// crossing proceeds while draining" check every recovery shares.
func (g *Gateway) AssertRecoveringRejected() error {
	if _, err := serve.Dial(g.addr, g.ClientConfig()); !errors.Is(err, serve.ErrRecovering) {
		return fmt.Errorf("dial during recovery drain returned %v, want ErrRecovering", err)
	}
	return nil
}

// CrashRecover runs the full crash cycle under Server.Recover: drain,
// run during (nil = AssertRecoveringRejected) while the gateway is
// down, then Restore.
func (g *Gateway) CrashRecover(ctx context.Context, during func() error) error {
	if during == nil {
		during = g.AssertRecoveringRejected
	}
	return g.W.Recover(ctx, func() error {
		if err := during(); err != nil {
			return err
		}
		return g.Restore()
	})
}

// Settle waits for the server's active-session gauge to reach n:
// session teardown runs on the connection goroutine after the client
// closes, so deterministic drivers barrier on it before their next
// step.
func (g *Gateway) Settle(n int) error {
	deadline := time.Now().Add(5 * time.Second)
	for g.W.Stats().Sessions != n {
		if time.Now().After(deadline) {
			return fmt.Errorf("smoke: %d sessions still active, want %d", g.W.Stats().Sessions, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// Close is the unconditional teardown: best-effort drain with a short
// deadline, then it joins the serve goroutine. The world stays open —
// the caller owns it.
func (g *Gateway) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = g.W.Shutdown(ctx)
	<-g.done
}
