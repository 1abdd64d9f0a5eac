package serve

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"montsalvat/internal/channel"
	"montsalvat/internal/core"
	"montsalvat/internal/sgx"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// lifecycleGateway serves slowProgram with one execution slot (slots,
// with startLifecycleGatewaySlots). Its Journal hook parks every work(1)
// call, handing its completion to the test on parked, and completes
// every other mutation inline: a parked request holds its slot for
// exactly as long as the test wants.
type lifecycleGateway struct {
	srv    *Server
	addr   string
	cfg    ClientConfig
	parked chan func(error)
	// reading carries the remote address of each accepted connection
	// once the gateway first reads from it: the connection is past the
	// accept loop and inside its handshake, waiting for the hello.
	reading chan string
}

func startLifecycleGateway(t *testing.T) *lifecycleGateway {
	t.Helper()
	return startLifecycleGatewaySlots(t, 1)
}

func startLifecycleGatewaySlots(t *testing.T, slots int) *lifecycleGateway {
	t.Helper()
	w, _, err := core.NewPartitionedWorld(slowProgram(t), world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := &lifecycleGateway{parked: make(chan func(error), slots), reading: make(chan string, 64)}
	platform := sgx.NewPlatformFromSeed([]byte("lifecycle-test-platform"))
	g.srv, err = New(Options{
		World:       w,
		Platform:    platform,
		MaxInFlight: slots,
		Journal: func(m Mutation, complete func(error)) {
			if m.Method == "work" {
				if ms, _ := m.Args[0].AsInt(); ms == 1 {
					g.parked <- complete
					return
				}
			}
			complete(nil)
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
	go func() { serveDone <- g.srv.Serve(&probeListener{Listener: ln, reading: g.reading}) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := g.srv.Shutdown(ctx); err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
		w.Close()
	})
	g.addr = ln.Addr().String()
	g.cfg = ClientConfig{Platform: platform, Measurement: g.srv.Measurement()}
	return g
}

// probeListener wraps every accepted connection so its first read
// reports the connection's remote address on reading.
type probeListener struct {
	net.Listener
	reading chan string
}

func (l *probeListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &probeConn{Conn: c, reading: l.reading}, nil
}

type probeConn struct {
	net.Conn
	once    sync.Once
	reading chan string
}

func (c *probeConn) Read(p []byte) (int, error) {
	c.once.Do(func() { c.reading <- c.RemoteAddr().String() })
	return c.Conn.Read(p)
}

// session dials an attested session holding one Slow object.
func (g *lifecycleGateway) session(t *testing.T) (*Client, Handle) {
	t.Helper()
	c, err := Dial(g.addr, g.cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	h, err := c.New("Slow")
	if err != nil {
		t.Fatal(err)
	}
	return c, h
}

// park runs a work(1) call on a session of its own until the Journal
// hook holds it, and returns the call's result channel and completion.
func (g *lifecycleGateway) park(t *testing.T) (<-chan error, func(error)) {
	t.Helper()
	c, h := g.session(t)
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(h, "work", wire.Int(1))
		done <- err
	}()
	return done, <-g.parked
}

// pending dials a raw connection and returns once the gateway's
// handshake is reading it, before any hello is sent.
func (g *lifecycleGateway) pending(t *testing.T) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", g.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	for addr := range g.reading {
		if addr == conn.LocalAddr().String() {
			return conn
		}
	}
	return nil
}

// hello runs the client's side of the handshake on a pending connection.
func (g *lifecycleGateway) hello(conn net.Conn) error {
	_, err := channel.Initiate(conn, sessionPlane, channel.Identity{Platform: g.cfg.Platform}, "", g.cfg.Measurement)
	return handshakeErr(err)
}

// refusalCounts are the Stats counters a refused request or handshake
// can move.
type refusalCounts struct {
	handshakeFailures, overload, draining, recovering, deadline, foreign, session, sessionBusy, wrongShard uint64
}

func refusalsOf(s Stats) refusalCounts {
	return refusalCounts{s.HandshakeFailures, s.RejectedOverload, s.RejectedDraining, s.RejectedRecovering,
		s.RejectedDeadline, s.RejectedForeign, s.RejectedSession, s.RejectedSessionBusy, s.RejectedWrongShard}
}

// refused checks that err is want and that, of the refusal counters,
// exactly the one bump moves names moved, by one, since before.
func refused(t *testing.T, srv *Server, what string, err, want error, before refusalCounts, bump func(*refusalCounts) *uint64) refusalCounts {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("%s: %v, want %v", what, err, want)
	}
	*bump(&before)++
	if got := refusalsOf(srv.Stats()); got != before {
		t.Fatalf("%s: counters %+v, want %+v", what, got, before)
	}
	return before
}

func waitInFlight(t *testing.T, srv *Server, want int) {
	t.Helper()
	waitFor(t, func() bool { return srv.Stats().InFlight == want })
}

// TestGatewayLifecycleGate pins how Shutdown and Recover gate the
// gateway while their drain waits on a request the Journal hook holds:
// a new handshake, a request on an open session and a request queued in
// admission behind the full execution slot each get a typed refusal
// that moves exactly one counter, the drain returns only once the hook
// completes, and no execution slot stays taken.
func TestGatewayLifecycleGate(t *testing.T) {
	draining := func(c *refusalCounts) *uint64 { return &c.draining }
	recovering := func(c *refusalCounts) *uint64 { return &c.recovering }
	for _, tc := range []struct {
		name  string
		drain func(*Server) error
		// started reports that drain has begun refusing; nil when the
		// queued request's refusal is the first sign.
		started func(*Server) bool
		want    error
		bump    func(*refusalCounts) *uint64
		// A drain that aborts queued waiters refuses the queued request
		// at once; one that does not leaves it to its deadline.
		queuedBudget time.Duration
		queuedWant   error
		queuedBump   func(*refusalCounts) *uint64
	}{
		{
			name: "shutdown",
			drain: func(srv *Server) error {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				return srv.Shutdown(ctx)
			},
			want: ErrDraining, bump: draining,
			queuedBudget: 10 * time.Second, queuedWant: ErrDraining, queuedBump: draining,
		},
		{
			name: "recover",
			drain: func(srv *Server) error {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				return srv.Recover(ctx, func() error { return nil })
			},
			started: func(srv *Server) bool { return srv.Stats().Recovering },
			want:    ErrRecovering, bump: recovering,
			queuedBudget: 500 * time.Millisecond, queuedWant: ErrDeadline,
			queuedBump: func(c *refusalCounts) *uint64 { return &c.deadline },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := startLifecycleGateway(t)
			open, openH := g.session(t)
			queued, queuedH := g.session(t)
			conn := g.pending(t)
			parkedDone, complete := g.park(t)
			waitInFlight(t, g.srv, 1)

			counts := refusalsOf(g.srv.Stats())
			queuedErr := make(chan error, 1)
			go func() {
				_, err := queued.CallCtx(telemetry.SpanContext{}, tc.queuedBudget, queuedH, "work", wire.Int(0))
				queuedErr <- err
			}()
			waitFor(t, func() bool { return g.srv.adm.waiters.Load() == 1 })

			drained := make(chan error, 1)
			go func() { drained <- tc.drain(g.srv) }()
			if tc.started != nil {
				waitFor(t, func() bool { return tc.started(g.srv) })
			}
			counts = refused(t, g.srv, "queued request", <-queuedErr, tc.queuedWant, counts, tc.queuedBump)
			_, err := open.Call(openH, "work", wire.Int(0))
			counts = refused(t, g.srv, "request on an open session", err, tc.want, counts, tc.bump)
			refused(t, g.srv, "new handshake", g.hello(conn), tc.want, counts, tc.bump)

			select {
			case err := <-drained:
				t.Fatalf("drain returned %v while a request was parked", err)
			default:
			}
			if got := g.srv.Stats().InFlight; got != 1 {
				t.Fatalf("in flight during the drain = %d, want the parked request", got)
			}
			complete(nil)
			if err := <-parkedDone; err != nil {
				t.Fatalf("parked request: %v", err)
			}
			if err := <-drained; err != nil {
				t.Fatalf("drain: %v", err)
			}
			if got := g.srv.Stats().InFlight; got != 0 {
				t.Fatalf("in flight after the drain = %d, want 0", got)
			}
			if tc.name == "shutdown" {
				if _, err := Dial(g.addr, g.cfg); err == nil {
					t.Fatal("dial after shutdown succeeded")
				}
				return
			}
			if st := g.srv.Stats(); st.Recovering || st.Recoveries != 1 {
				t.Fatalf("after recovery: recovering %v, recoveries %d", st.Recovering, st.Recoveries)
			}
			c, h := g.session(t)
			if _, err := c.Call(h, "work", wire.Int(0)); err != nil {
				t.Fatalf("request after recovery: %v", err)
			}
		})
	}

	t.Run("shutdown-expired-ctx", func(t *testing.T) {
		g := startLifecycleGateway(t)
		_, complete := g.park(t)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		drained := make(chan error, 1)
		go func() { drained <- g.srv.Shutdown(ctx) }()
		<-ctx.Done()
		select {
		case err := <-drained:
			t.Fatalf("shutdown returned %v before the parked request completed", err)
		default:
		}
		complete(nil)
		if err := <-drained; !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("shutdown: %v, want context.DeadlineExceeded", err)
		}
		if got := g.srv.Stats().InFlight; got != 0 {
			t.Fatalf("in flight after shutdown = %d, want 0", got)
		}
	})

	t.Run("recover-expired-ctx", func(t *testing.T) {
		g := startLifecycleGateway(t)
		parkedDone, complete := g.park(t)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		err := g.srv.Recover(ctx, func() error {
			t.Error("restore ran after the drain deadline")
			return nil
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("recover: %v, want context.DeadlineExceeded", err)
		}
		if st := g.srv.Stats(); st.Recovering || st.Recoveries != 0 {
			t.Fatalf("after an expired recovery: recovering %v, recoveries %d", st.Recovering, st.Recoveries)
		}
		complete(nil)
		if err := <-parkedDone; err != nil {
			t.Fatalf("parked request: %v", err)
		}
		c, h := g.session(t)
		if _, err := c.Call(h, "work", wire.Int(0)); err != nil {
			t.Fatalf("request after an expired recovery: %v", err)
		}
		waitInFlight(t, g.srv, 0)
	})

	t.Run("shutdown-during-recover", func(t *testing.T) {
		g := startLifecycleGateway(t)
		open, openH := g.session(t)
		parkedDone, complete := g.park(t)
		recovered := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			recovered <- g.srv.Recover(ctx, func() error { return nil })
		}()
		waitFor(t, func() bool { return g.srv.Stats().Recovering })
		drained := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			drained <- g.srv.Shutdown(ctx)
		}()
		// Shutdown wins: the open session's requests turn from
		// recovering to draining while Recover is still in its drain.
		waitFor(t, func() bool {
			_, err := open.Call(openH, "work", wire.Int(0))
			return errors.Is(err, ErrDraining)
		})
		complete(nil)
		if err := <-parkedDone; err != nil {
			t.Fatalf("parked request: %v", err)
		}
		if err := <-drained; err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		if err := <-recovered; err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("recover beside shutdown: %v", err)
		}
		if st := g.srv.Stats(); st.Recovering || st.InFlight != 0 {
			t.Fatalf("after shutdown: recovering %v, in flight %d", st.Recovering, st.InFlight)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := g.srv.Recover(ctx, func() error { return nil }); !errors.Is(err, ErrClosed) {
			t.Fatalf("recover after shutdown: %v, want ErrClosed", err)
		}
		if err := g.srv.Shutdown(ctx); !errors.Is(err, ErrClosed) {
			t.Fatalf("second shutdown: %v, want ErrClosed", err)
		}
	})
}

// TestShutdownTakesOverRecoverDrain: with two slots held by parked
// requests, a Recover and then a Shutdown both drain. Recover's drain
// gives up as soon as Shutdown starts — had each drain kept one of the
// two slots the parked requests free, neither could finish — so Recover
// returns ErrClosed while both requests are still parked, and Shutdown
// returns once the hook completes them.
func TestShutdownTakesOverRecoverDrain(t *testing.T) {
	g := startLifecycleGatewaySlots(t, 2)
	open, openH := g.session(t)
	var completes []func(error)
	var parked []<-chan error
	for i := 0; i < 2; i++ {
		done, complete := g.park(t)
		parked, completes = append(parked, done), append(completes, complete)
	}
	// Completing twice is harmless (the second is dropped), so a failed
	// run still lets the cleanup's Shutdown finish.
	t.Cleanup(func() {
		for _, complete := range completes {
			complete(nil)
		}
	})
	// Recover's drain is unbounded here: only Shutdown can end it before
	// the parked requests complete.
	recovered := make(chan error, 1)
	go func() { recovered <- g.srv.Recover(context.Background(), func() error { return nil }) }()
	waitFor(t, func() bool { return g.srv.Stats().Recovering })
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- g.srv.Shutdown(ctx)
	}()
	select {
	case err := <-recovered:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("recover under shutdown: %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recover still in its drain 10s after Shutdown started")
	}
	if _, err := open.Call(openH, "work", wire.Int(0)); !errors.Is(err, ErrDraining) {
		t.Fatalf("request after recover gave way: %v, want ErrDraining", err)
	}
	for _, complete := range completes {
		complete(nil)
	}
	for _, done := range parked {
		if err := <-done; err != nil {
			t.Fatalf("parked request: %v", err)
		}
	}
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := g.srv.Stats().InFlight; got != 0 {
		t.Fatalf("in flight after shutdown = %d, want 0", got)
	}
}
