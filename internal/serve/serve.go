package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"montsalvat/internal/channel"
	"montsalvat/internal/classmodel"
	"montsalvat/internal/sgx"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// Options configures a gateway Server.
type Options struct {
	// World is the partitioned world the gateway serves. Required; must
	// be in world.ModePartitioned.
	World *world.World
	// Platform is the attestation infrastructure used to quote the
	// world's enclave during session handshakes. Required. Clients must
	// share it (same attestation key) for quotes to verify; use
	// sgx.NewPlatformFromSeed for cross-process deployments.
	Platform *sgx.Platform
	// Classes optionally restricts which application classes clients may
	// instantiate. Empty means every non-builtin class in the program.
	Classes []string
	// MaxSessions bounds concurrently connected sessions (default 64).
	MaxSessions int
	// MaxInFlight bounds concurrently executing requests across all
	// sessions (default 32). Each runs on one of up to MaxInFlight
	// workers, each holding a world.Lane: as many as the enclave's TCS
	// budget allows (world.OpenLanes).
	MaxInFlight int
	// QueueDepth bounds requests waiting for an execution slot before
	// admission rejects with ErrOverloaded (default MaxInFlight).
	QueueDepth int
	// SessionInFlight bounds one session's concurrently admitted
	// requests, so a single client cannot monopolise the gateway
	// (default 4).
	SessionInFlight int
	// RequestTimeout caps the server-side deadline of any request,
	// regardless of the client's declared budget (default 30s).
	RequestTimeout time.Duration
	// HandshakeTimeout bounds the attestation handshake (default 10s).
	HandshakeTimeout time.Duration
	// WriteTimeout bounds one response write so a stalled client cannot
	// wedge a serving goroutine (default 10s).
	WriteTimeout time.Duration
	// ShardCheck, when set, runs before any state-touching request
	// (new/call) executes. A fabric gateway installs the partition
	// predicate here: return a *WrongShardError for keys this shard does
	// not own and the client gets a typed redirect (statusWrongShard)
	// instead of executing against the wrong World. Any other error
	// rejects the request with its mapped status.
	ShardCheck func(op, class, method string, args []wire.Value) error
	// Journal, when set, receives every successfully executed
	// state-changing request (new/call) after it ran and before the
	// client sees the OK — the hook the durability layer uses to put
	// mutations in the write-ahead log. The hook takes ownership of the
	// request's completion and calls complete exactly once, from any
	// goroutine, when the mutation is durable (nil) or failed
	// (non-nil); only then does the gateway send the ack — or the
	// error — and release the request's admission slot. A hook that
	// finishes inline calls complete before returning; one that waits
	// (replication watermarks) returns first, which frees the lane
	// worker and parks only the request. A journal error withholds the
	// ack: the client gets an application error and must treat the
	// mutation as not durable (it may still surface after recovery if
	// the append itself landed — the standard durable-but-unacked
	// window).
	Journal func(m Mutation, complete func(error))
	// Logf, when set, receives diagnostic messages (e.g. teardown
	// release failures). Defaults to discarding them.
	Logf func(format string, args ...any)
	// Telemetry, when non-nil, exposes the gateway through the metrics
	// registry: per-reason admission rejections, handshake and request
	// latency histograms, live session/in-flight gauges. Pass the same
	// bundle as world.Options.Telemetry so one scrape covers both layers.
	// Request spans continue the client's trace context (requests carry
	// an injected SpanContext), and session lifecycle transitions are
	// journaled to the bundle's event log.
	Telemetry *telemetry.Telemetry
	// Node labels this gateway's spans and events in a fleet ("shard-2");
	// default "gateway".
	Node string
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = 64
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 32
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = opts.MaxInFlight
	}
	if opts.SessionInFlight <= 0 {
		opts.SessionInFlight = 4
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 30 * time.Second
	}
	if opts.HandshakeTimeout <= 0 {
		opts.HandshakeTimeout = 10 * time.Second
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = 10 * time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Node == "" {
		opts.Node = "gateway"
	}
	return opts
}

// Stats is a point-in-time snapshot of gateway counters.
type Stats struct {
	// Sessions is the number of currently attested, connected sessions.
	Sessions int
	// SessionsTotal counts sessions ever admitted.
	SessionsTotal uint64
	// HandshakeFailures counts connections dropped during attestation.
	HandshakeFailures uint64
	// Requests counts requests admitted for execution.
	Requests uint64
	// AppErrors counts requests that executed but failed in application
	// code.
	AppErrors uint64
	// InFlight is the number of requests executing right now; PeakInFlight
	// is the high-water mark (never exceeds MaxInFlight).
	InFlight     int
	PeakInFlight int
	// Lanes is the number of request workers, each holding an enclave
	// lane (world.OpenLanes grants at most MaxInFlight).
	Lanes int
	// Typed rejection counters. RejectedOverload counts global
	// queue/deadline overflow; RejectedSessionBusy counts requests turned
	// away at one session's SessionInFlight cap (reported to the client
	// as overloaded, but a distinct operator signal: one noisy client,
	// not a saturated gateway).
	RejectedOverload    uint64
	RejectedDraining    uint64
	RejectedRecovering  uint64
	RejectedDeadline    uint64
	RejectedForeign     uint64
	RejectedSession     uint64
	RejectedSessionBusy uint64
	// RejectedWrongShard counts requests redirected to their owning
	// shard by the ShardCheck hook — routing-table staleness pressure,
	// not an error condition.
	RejectedWrongShard uint64
	// Recoveries counts completed Server.Recover cycles; Recovering
	// reports whether one is in progress right now.
	Recoveries uint64
	Recovering bool
	// BytesIn / BytesOut count post-handshake wire traffic.
	BytesIn  uint64
	BytesOut uint64
}

// Server is the enclave gateway: it accepts TCP clients, attests the
// world's enclave to each on connect, and serves their requests against
// the shared partitioned world under admission control.
type Server struct {
	opts    Options
	w       *world.World
	allowed map[string]bool

	adm      *admission
	draining atomic.Bool
	drainCh  chan struct{}
	// recovering rejects new work with statusRecovering while
	// Server.Recover restores the enclave; recoverMu serialises Recover
	// calls. exports maps bind names to providers (see Export).
	recovering atomic.Bool
	recoverMu  sync.Mutex
	exportsMu  sync.RWMutex
	exports    map[string]func(env classmodel.Env) (wire.Value, error)
	// drainMu orders request registration against Shutdown's wait: a
	// request holds the read side while it checks draining and joins
	// reqWG, so the drain barrier (write lock) guarantees every admitted
	// request is either counted by reqWG.Wait or typed-rejected.
	drainMu sync.RWMutex

	mu         sync.Mutex
	ln         net.Listener
	sessions   map[int64]*session
	sessionSeq int64
	// handshaking counts connections that hold a session slot but are
	// not in sessions yet: a slot is reserved at the MaxSessions check
	// and either becomes a session or is given back, so the limit bounds
	// the two together however many clients dial at once.
	handshaking int

	connWG sync.WaitGroup // one per accepted connection
	reqWG  sync.WaitGroup // one per admitted request

	// calls feeds admitted requests to one worker per lane, so
	// concurrent sessions' proxy calls execute in parallel, each handed
	// into the enclave through its worker's own resident thread.
	calls   chan *call
	workers sync.WaitGroup
	lanes   int

	sessionsTotal  atomic.Uint64
	handshakeFails atomic.Uint64
	requests       atomic.Uint64
	appErrors      atomic.Uint64
	rejOverload    atomic.Uint64
	rejDraining    atomic.Uint64
	rejRecovering  atomic.Uint64
	recoveries     atomic.Uint64
	rejDeadline    atomic.Uint64
	rejForeign     atomic.Uint64
	rejSession     atomic.Uint64
	rejSessionBusy atomic.Uint64
	rejWrongShard  atomic.Uint64
	bytesIn        atomic.Uint64
	bytesOut       atomic.Uint64

	// Telemetry latency histograms, nil when observability is off (the
	// counters above are absorbed by a registered collector instead).
	hHandshake *telemetry.Histogram
	hRequest   *telemetry.Histogram
	// tracer and events cache the telemetry bundle's components; both
	// are nil-safe, so the disabled path pays one branch.
	tracer *telemetry.Tracer
	events *telemetry.EventLog
}

// New builds a gateway over an already-booted partitioned world.
func New(opts Options) (*Server, error) {
	if opts.World == nil {
		return nil, errors.New("serve: Options.World is required")
	}
	if opts.World.Mode() != world.ModePartitioned {
		return nil, fmt.Errorf("serve: world mode %v, need %v", opts.World.Mode(), world.ModePartitioned)
	}
	if opts.Platform == nil {
		return nil, errors.New("serve: Options.Platform is required")
	}
	o := opts.withDefaults()
	lanes, err := o.World.OpenLanes(o.MaxInFlight)
	if err != nil {
		return nil, fmt.Errorf("serve: lanes: %w", err)
	}
	if len(lanes) == 0 {
		return nil, errors.New("serve: no TCS slot left for a lane")
	}
	srv := &Server{
		opts:     o,
		w:        o.World,
		adm:      newAdmission(o.MaxInFlight, o.QueueDepth),
		drainCh:  make(chan struct{}),
		sessions: make(map[int64]*session),
		exports:  make(map[string]func(env classmodel.Env) (wire.Value, error)),
		calls:    make(chan *call),
		lanes:    len(lanes),
	}
	srv.workers.Add(len(lanes))
	for _, lane := range lanes {
		go func() {
			defer srv.workers.Done()
			defer lane.Close()
			for c := range srv.calls {
				c.run(lane)
			}
		}()
	}
	if len(o.Classes) > 0 {
		srv.allowed = make(map[string]bool, len(o.Classes))
		for _, c := range o.Classes {
			srv.allowed[c] = true
		}
	}
	if reg := o.Telemetry.Registry(); reg != nil {
		srv.hHandshake = reg.Histogram("montsalvat_serve_handshake_ns")
		srv.hRequest = reg.Histogram("montsalvat_serve_request_ns")
		reg.RegisterCollector(srv.collectMetrics)
	}
	srv.tracer = o.Telemetry.Tracer()
	srv.events = o.Telemetry.Events()
	return srv, nil
}

// collectMetrics absorbs the gateway's private counters into registry
// metrics at scrape time — the serve-layer collector mirroring the
// world's.
func (srv *Server) collectMetrics(reg *telemetry.Registry) {
	s := srv.Stats()
	reg.Gauge("montsalvat_serve_sessions_active").Set(int64(s.Sessions))
	reg.Counter("montsalvat_serve_sessions_total").Set(s.SessionsTotal)
	reg.Counter("montsalvat_serve_handshake_failures_total").Set(s.HandshakeFailures)
	reg.Counter("montsalvat_serve_requests_total").Set(s.Requests)
	reg.Counter("montsalvat_serve_app_errors_total").Set(s.AppErrors)
	reg.Gauge("montsalvat_serve_inflight").Set(int64(s.InFlight))
	reg.Gauge("montsalvat_serve_inflight_peak").Set(int64(s.PeakInFlight))
	reg.Counter("montsalvat_serve_rejected_total", "reason", "overloaded").Set(s.RejectedOverload)
	reg.Counter("montsalvat_serve_rejected_total", "reason", "draining").Set(s.RejectedDraining)
	reg.Counter("montsalvat_serve_rejected_total", "reason", "recovering").Set(s.RejectedRecovering)
	reg.Counter("montsalvat_serve_recoveries_total").Set(s.Recoveries)
	recovering := int64(0)
	if s.Recovering {
		recovering = 1
	}
	reg.Gauge("montsalvat_serve_recovering").Set(recovering)
	reg.Counter("montsalvat_serve_rejected_total", "reason", "deadline").Set(s.RejectedDeadline)
	reg.Counter("montsalvat_serve_rejected_total", "reason", "foreign_ref").Set(s.RejectedForeign)
	reg.Counter("montsalvat_serve_rejected_total", "reason", "session_limit").Set(s.RejectedSession)
	reg.Counter("montsalvat_serve_rejected_total", "reason", "session_busy").Set(s.RejectedSessionBusy)
	reg.Counter("montsalvat_serve_rejected_total", "reason", "wrong_shard").Set(s.RejectedWrongShard)
	reg.Counter("montsalvat_serve_bytes_in_total").Set(s.BytesIn)
	reg.Counter("montsalvat_serve_bytes_out_total").Set(s.BytesOut)
}

// Measurement returns the served enclave's measurement — what clients
// must expect when verifying the handshake quote.
func (srv *Server) Measurement() [32]byte {
	return srv.w.Enclave().Measurement()
}

// Serve accepts connections until the listener closes. It returns nil
// when the listener was closed by Shutdown.
func (srv *Server) Serve(ln net.Listener) error {
	srv.mu.Lock()
	srv.ln = ln
	srv.mu.Unlock()
	// A Shutdown that raced this registration found srv.ln nil and had
	// no listener to close; honour the drain here instead of parking in
	// Accept on a listener nothing will ever close.
	if srv.draining.Load() {
		_ = ln.Close()
		return nil
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if srv.draining.Load() {
				return nil
			}
			return err
		}
		// Shutdown sets draining and then takes srv.mu before it waits on
		// connWG, so a connection accepted as the listener closes either
		// joins the group before that Wait or is dropped here.
		srv.mu.Lock()
		if srv.draining.Load() {
			srv.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		srv.connWG.Add(1)
		srv.mu.Unlock()
		go func() {
			defer srv.connWG.Done()
			srv.handleConn(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves. Addr returns the bound
// address once serving starts.
func (srv *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return srv.Serve(ln)
}

// Addr returns the listener address, or nil before Serve.
func (srv *Server) Addr() net.Addr {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.ln == nil {
		return nil
	}
	return srv.ln.Addr()
}

// Shutdown drains the gateway: it stops accepting, rejects new work
// with ErrDraining, waits (bounded by ctx) for in-flight requests,
// tears down every session through the GC-release path, and flushes the
// world's batching queues, surfacing any batched-call errors — the
// failure mode World.Close used to swallow.
func (srv *Server) Shutdown(ctx context.Context) error {
	if !srv.draining.CompareAndSwap(false, true) {
		return ErrClosed
	}
	srv.events.Emit(telemetry.EventDrain, srv.opts.Node, 0, "shutdown drain")
	close(srv.drainCh)
	// Barrier: after this, every new request observes draining before it
	// could join reqWG, so the Wait below cannot race an Add.
	srv.drainMu.Lock()
	srv.drainMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	srv.mu.Lock()
	ln := srv.ln
	srv.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}

	// Wait for admitted requests to finish (new ones are rejected).
	done := make(chan struct{})
	go func() {
		srv.reqWG.Wait()
		close(done)
	}()
	var ctxErr error
	select {
	case <-done:
	case <-ctx.Done():
		ctxErr = ctx.Err()
	}

	// Close every session connection; read loops exit and tear down
	// their namespaces through the GC-release path.
	srv.mu.Lock()
	open := make([]*session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		open = append(open, s)
	}
	srv.mu.Unlock()
	for _, s := range open {
		s.closeConn()
	}
	srv.connWG.Wait()
	// Every session loop has exited, so no further calls: retire the
	// workers, which close their lanes.
	close(srv.calls)
	srv.workers.Wait()

	// Surface batched-call errors from the final flush instead of
	// dropping them (the CloseErr contract).
	return errors.Join(ctxErr, srv.w.Flush())
}

// Stats snapshots the gateway counters.
func (srv *Server) Stats() Stats {
	srv.mu.Lock()
	live := len(srv.sessions)
	srv.mu.Unlock()
	return Stats{
		Sessions:            live,
		SessionsTotal:       srv.sessionsTotal.Load(),
		HandshakeFailures:   srv.handshakeFails.Load(),
		Requests:            srv.requests.Load(),
		AppErrors:           srv.appErrors.Load(),
		InFlight:            srv.adm.current(),
		PeakInFlight:        srv.adm.peakInFlight(),
		Lanes:               srv.lanes,
		RejectedOverload:    srv.rejOverload.Load(),
		RejectedDraining:    srv.rejDraining.Load(),
		RejectedRecovering:  srv.rejRecovering.Load(),
		Recoveries:          srv.recoveries.Load(),
		Recovering:          srv.recovering.Load(),
		RejectedDeadline:    srv.rejDeadline.Load(),
		RejectedForeign:     srv.rejForeign.Load(),
		RejectedSession:     srv.rejSession.Load(),
		RejectedSessionBusy: srv.rejSessionBusy.Load(),
		RejectedWrongShard:  srv.rejWrongShard.Load(),
		BytesIn:             srv.bytesIn.Load(),
		BytesOut:            srv.bytesOut.Load(),
	}
}

// checkClass validates that a class is instantiable through the gateway.
func (srv *Server) checkClass(name string) error {
	if classmodel.IsBuiltin(name) {
		return fmt.Errorf("%w: builtin class %q", ErrBadRequest, name)
	}
	if srv.allowed != nil && !srv.allowed[name] {
		return fmt.Errorf("%w: class %q not served", ErrBadRequest, name)
	}
	prog := srv.w.Untrusted().Image().Program()
	if _, ok := prog.Class(name); !ok {
		return fmt.Errorf("%w: unknown class %q", ErrBadRequest, name)
	}
	return nil
}

// handleConn runs the attestation handshake and, on success, the
// session's serving loop. Any handshake failure counts once and drops
// the connection.
func (srv *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	start := time.Now()
	s, err := srv.handshake(conn)
	if err != nil {
		if !errors.Is(err, ErrDraining) && !errors.Is(err, ErrRecovering) && !errors.Is(err, ErrSessionLimit) {
			srv.handshakeFails.Add(1)
			srv.opts.Logf("serve: handshake from %v: %v", conn.RemoteAddr(), err)
		}
		return
	}
	srv.hHandshake.ObserveDuration(time.Since(start))
	defer srv.dropSession(s)
	s.loop()
}

// handshake attests the world's enclave to a new connection — the
// responder's side of the attested channel (internal/channel), in its
// one-sided form: the client proves nothing — and registers the session.
// Admission runs once the hello is read and before anything is quoted;
// its refusals reach the client in place of the attestation and surface
// there, as here, as ErrDraining, ErrRecovering or ErrSessionLimit.
func (srv *Server) handshake(conn net.Conn) (*session, error) {
	// A slot is reserved at the limit check and either becomes a session
	// or is given back.
	var sid int64
	registered := false
	defer func() {
		if sid != 0 && !registered {
			srv.mu.Lock()
			srv.handshaking--
			srv.mu.Unlock()
		}
	}()
	admit := func(string) (*[32]byte, error) {
		if srv.draining.Load() {
			srv.rejDraining.Add(1)
			return nil, &channel.RejectError{Status: statusDraining}
		}
		if srv.recovering.Load() {
			// The enclave being quoted is mid-rebuild: tell the client to
			// retry instead of attesting a half-recovered identity.
			srv.rejRecovering.Add(1)
			return nil, &channel.RejectError{Status: statusRecovering}
		}
		srv.mu.Lock()
		defer srv.mu.Unlock()
		if len(srv.sessions)+srv.handshaking >= srv.opts.MaxSessions {
			srv.rejSession.Add(1)
			return nil, &channel.RejectError{Status: statusSession}
		}
		srv.handshaking++
		srv.sessionSeq++
		sid = srv.sessionSeq
		return nil, nil // a client proves nothing
	}
	// A killed world has no enclave (a fabric kill tears it down before it
	// closes the listener); the channel refuses to attest nothing.
	local := channel.Identity{Platform: srv.opts.Platform, Enclave: srv.w.Enclave()}
	ch, err := channel.Accept(conn, sessionPlane, local, admit, srv.opts.HandshakeTimeout)
	if err != nil {
		return nil, handshakeErr(err)
	}

	s := newSession(srv, sid, conn, ch)
	srv.mu.Lock()
	if srv.draining.Load() {
		srv.mu.Unlock()
		return nil, ErrDraining
	}
	if srv.recovering.Load() {
		// Recover snapshots the session map after its drain barrier; a
		// handshake that raced past the early check must not slip a live
		// session into a world that is being torn down.
		srv.mu.Unlock()
		return nil, ErrRecovering
	}
	srv.handshaking--
	srv.sessions[s.id] = s
	registered = true
	srv.mu.Unlock()
	srv.sessionsTotal.Add(1)
	srv.events.Emit(telemetry.EventSessionOpen, srv.opts.Node, 0, "session %d from %v", s.id, conn.RemoteAddr())
	return s, nil
}

// dropSession unregisters a session and releases its objects.
func (srv *Server) dropSession(s *session) {
	srv.mu.Lock()
	delete(srv.sessions, s.id)
	srv.mu.Unlock()
	s.teardown()
	srv.events.Emit(telemetry.EventSessionClose, srv.opts.Node, 0, "session %d", s.id)
}
