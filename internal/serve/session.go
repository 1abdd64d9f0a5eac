package serve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"montsalvat/internal/channel"
	"montsalvat/internal/classmodel"
	"montsalvat/internal/registry"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
)

// session is one attested client connection. It owns a private handle
// namespace: object references cross the wire as session-local handles,
// never as world identity hashes, and a handle from another session is
// rejected (ErrForeignRef) before it can touch the world.
type session struct {
	id   int64
	srv  *Server
	conn net.Conn
	ch   *channel.Conn // read by loop alone
	ns   *registry.Namespace

	writeMu sync.Mutex // serialises the channel's senders

	inflight  atomic.Int64 // per-session admitted requests
	wg        sync.WaitGroup
	closeOnce sync.Once
	// dead marks a session invalidated by Server.Recover: its handles
	// and keys belong to an enclave incarnation that no longer exists,
	// so teardown must not push them through the GC-release path.
	dead atomic.Bool
}

func newSession(srv *Server, id int64, conn net.Conn, ch *channel.Conn) *session {
	return &session{id: id, srv: srv, conn: conn, ch: ch, ns: registry.NewNamespace()}
}

func (s *session) closeConn() {
	s.closeOnce.Do(func() { _ = s.conn.Close() })
}

// loop reads sealed request frames until the connection drops. Admitted
// requests execute on the server's worker pool; admission itself runs
// on the loop goroutine, so a saturated gateway back-pressures the
// session's reads (bounding this session's queued work to one request).
func (s *session) loop() {
	defer s.wg.Wait() // in-flight replies need the connection state
	for {
		plain, err := s.ch.Recv()
		if err != nil {
			if errors.Is(err, channel.ErrAuth) {
				// Tampered or replayed traffic: the channel is no longer
				// trustworthy, drop the session.
				s.srv.opts.Logf("serve: session %d: %v", s.id, err)
			}
			return
		}
		s.srv.bytesIn.Add(uint64(len(plain) + channel.Overhead))
		req, err := decodeRequest(plain)
		if err != nil {
			// Content decode failed under a valid seal: report and keep
			// the session if the request id is recoverable, else drop.
			if req.id != 0 {
				s.reply(req.id, response{status: statusBadRequest, message: err.Error()})
				continue
			}
			return
		}
		s.dispatch(req)
	}
}

// dispatch admits one request and runs it. Typed rejections
// (overload, draining, deadline) reply immediately without executing.
func (s *session) dispatch(req request) {
	var deadline time.Time
	budget := s.srv.opts.RequestTimeout
	if req.budget > 0 && req.budget < budget {
		budget = req.budget
	}
	deadline = time.Now().Add(budget)

	if s.srv.draining.Load() {
		s.srv.rejDraining.Add(1)
		s.reply(req.id, response{status: statusDraining, message: ErrDraining.Error()})
		return
	}
	if s.srv.recovering.Load() {
		s.srv.rejRecovering.Add(1)
		s.reply(req.id, response{status: statusRecovering, message: ErrRecovering.Error()})
		return
	}
	if s.inflight.Load() >= int64(s.srv.opts.SessionInFlight) {
		// The client sees the same overloaded status either way, but the
		// operator-facing counter distinguishes one saturated session
		// from a saturated gateway.
		s.srv.rejSessionBusy.Add(1)
		s.reply(req.id, response{status: statusOverloaded, message: "session in-flight limit"})
		return
	}
	if err := s.srv.adm.acquire(deadline, s.srv.drainCh); err != nil {
		s.countReject(err)
		s.reply(req.id, response{status: errStatus(err), message: err.Error()})
		return
	}
	s.srv.drainMu.RLock()
	if s.srv.draining.Load() {
		s.srv.drainMu.RUnlock()
		s.srv.adm.release()
		s.srv.rejDraining.Add(1)
		s.reply(req.id, response{status: statusDraining, message: ErrDraining.Error()})
		return
	}
	if s.srv.recovering.Load() {
		s.srv.drainMu.RUnlock()
		s.srv.adm.release()
		s.srv.rejRecovering.Add(1)
		s.reply(req.id, response{status: statusRecovering, message: ErrRecovering.Error()})
		return
	}
	s.srv.requests.Add(1)
	s.inflight.Add(1)
	s.wg.Add(1)
	s.srv.reqWG.Add(1)
	s.srv.drainMu.RUnlock()
	start := time.Now()
	s.srv.pool.submit(func() {
		// Continue the client's trace across the session frame: the span
		// joins the injected context (or samples a fresh root for
		// untraced clients) and is handed to the execution frame, so the
		// world's proxy-call spans become its children.
		var sp *telemetry.Span
		if tracer := s.srv.tracer; tracer != nil {
			sp = tracer.StartRemote(req.trace, "serve "+req.op)
		}
		sp.SetNode(s.srv.opts.Node)
		sp.SetQueueWait(time.Since(start))
		// done finishes the request: span, reply, and the admission
		// epilogue. The worker calls it inline unless the request was
		// handed to the Journal hook, which calls it once the mutation
		// is durable — possibly long after this worker moved on. The
		// Once guards a buggy double-completion.
		var once sync.Once
		done := func(result wire.Value, err error) {
			once.Do(func() {
				var ws *WrongShardError
				if errors.As(err, &ws) {
					sp.SetEpoch(ws.Epoch)
					s.srv.events.Emit(telemetry.EventRedirect, s.srv.opts.Node, req.trace.TraceID,
						"%s -> owner %d epoch %d", req.op, ws.Owner, ws.Epoch)
				}
				sp.Finish(err)
				if err != nil {
					s.countReject(err)
					status := errStatus(err)
					if status == statusAppError {
						s.srv.appErrors.Add(1)
					}
					s.reply(req.id, response{status: status, message: errMessage(err)})
				} else {
					s.reply(req.id, response{status: statusOK, result: result})
				}
				s.srv.hRequest.ObserveDuration(time.Since(start))
				s.srv.adm.release()
				s.inflight.Add(-1)
				s.srv.reqWG.Done()
				s.wg.Done()
			})
		}
		result, err, async := s.execute(req, deadline, sp, done)
		if async {
			return // the journal hook owns completion
		}
		done(result, err)
	})
}

func (s *session) countReject(err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		s.srv.rejOverload.Add(1)
	case errors.Is(err, ErrDraining):
		s.srv.rejDraining.Add(1)
	case errors.Is(err, ErrRecovering):
		s.srv.rejRecovering.Add(1)
	case errors.Is(err, ErrDeadline):
		s.srv.rejDeadline.Add(1)
	case errors.Is(err, ErrForeignRef):
		s.srv.rejForeign.Add(1)
	case errors.Is(err, ErrWrongShard):
		s.srv.rejWrongShard.Add(1)
	}
}

// reply seals and writes one response frame.
func (s *session) reply(id int64, r response) {
	r.id = id
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	_ = s.conn.SetWriteDeadline(time.Now().Add(s.srv.opts.WriteTimeout))
	n, err := s.ch.Send(appendResponse(s.ch.Frame(), r))
	_ = s.conn.SetWriteDeadline(time.Time{})
	if err != nil {
		// A response over the frame budget, or a broken connection: the
		// read loop will observe the close and tear the session down.
		s.closeConn()
		return
	}
	s.srv.bytesOut.Add(uint64(n))
}

// execute runs one admitted request against the world. All object
// traffic goes through the session namespace; the world only ever sees
// hashes this session legitimately owns. sp (nil-safe) is the request's
// serve span: execution frames carry it so proxy-call spans nest under
// it, and journaled mutations inherit its context.
//
// async reports that the request's completion was handed to the
// Journal hook (which will call done); the returned value/error are
// then meaningless and the caller must not complete the request.
func (s *session) execute(req request, deadline time.Time, sp *telemetry.Span, done func(wire.Value, error)) (_ wire.Value, _ error, async bool) {
	if time.Now().After(deadline) {
		return wire.Value{}, ErrDeadline, false
	}
	switch req.op {
	case opPing:
		return wire.Null(), nil, false

	case opRelease:
		e, ok := s.ns.Remove(req.handle)
		if !ok {
			return wire.Value{}, ErrForeignRef, false
		}
		// Unpinning makes the object collectable; the mirror is freed by
		// the regular GC-release path (next sweep), not synchronously.
		if err := s.srv.w.Untrusted().Unpin(wire.Ref(e.Class, e.Hash)); err != nil {
			return wire.Value{}, &AppError{Msg: err.Error()}, false
		}
		return wire.Null(), nil, false

	case opNew:
		if err := s.srv.checkClass(req.class); err != nil {
			return wire.Value{}, err, false
		}
		if err := s.shardCheck(opNew, req.class, "", req.args); err != nil {
			return wire.Value{}, err, false
		}
		args, err := s.importValues(req.args)
		if err != nil {
			return wire.Value{}, err, false
		}
		var out wire.Value
		err = s.srv.w.ExecSpan(false, sp, func(env classmodel.Env) error {
			v, err := env.New(req.class, args...)
			if err != nil {
				return err
			}
			out, err = s.exportValue(v)
			return err
		})
		if err != nil {
			return wire.Value{}, appErr(err), false
		}
		return s.journal(Mutation{Op: opNew, Class: req.class, Args: args, Trace: sp.Context()}, out, done)

	case opBind:
		provider := s.srv.lookupExport(req.class)
		if provider == nil {
			return wire.Value{}, fmt.Errorf("%w: no export named %q", ErrBadRequest, req.class), false
		}
		var out wire.Value
		err := s.srv.w.ExecSpan(false, sp, func(env classmodel.Env) error {
			v, err := provider(env)
			if err != nil {
				return err
			}
			out, err = s.exportValue(v)
			return err
		})
		if err != nil {
			return wire.Value{}, appErr(err), false
		}
		return out, nil, false

	case opCall:
		e, ok := s.ns.Lookup(req.handle)
		if !ok {
			return wire.Value{}, ErrForeignRef, false
		}
		if err := s.shardCheck(opCall, e.Class, req.method, req.args); err != nil {
			return wire.Value{}, err, false
		}
		args, err := s.importValues(req.args)
		if err != nil {
			return wire.Value{}, err, false
		}
		var out wire.Value
		err = s.srv.w.ExecSpan(false, sp, func(env classmodel.Env) error {
			v, err := env.Call(wire.Ref(e.Class, e.Hash), req.method, args...)
			if err != nil {
				return err
			}
			out, err = s.exportValue(v)
			return err
		})
		if err != nil {
			return wire.Value{}, appErr(err), false
		}
		return s.journal(Mutation{Op: opCall, Class: e.Class, Method: req.method, Args: args, Trace: sp.Context()}, out, done)
	}
	return wire.Value{}, ErrBadRequest, false
}

// shardCheck consults the partition predicate before a state-touching
// request executes. Runs on raw request args (session handles, not
// world refs): partition keys are plain values, and a redirected
// request must not import handles it will never use.
func (s *session) shardCheck(op, class, method string, args []wire.Value) error {
	check := s.srv.opts.ShardCheck
	if check == nil {
		return nil
	}
	return check(op, class, method, args)
}

// journal hands a successfully executed mutation to the durability
// hook, transferring completion ownership: the hook calls complete when
// the mutation is durable, and complete finishes the request with out
// (or withholds the OK on a journal error — the mutation ran but is not
// durable, so the client must not be told it succeeded). Without a hook
// the request completes inline with out. The results are execute's.
func (s *session) journal(m Mutation, out wire.Value, done func(wire.Value, error)) (_ wire.Value, _ error, async bool) {
	j := s.srv.opts.Journal
	if j == nil {
		return out, nil, false
	}
	j(m, func(jerr error) {
		if jerr != nil {
			done(wire.Value{}, &AppError{Msg: "journal: " + jerr.Error()})
			return
		}
		done(out, nil)
	})
	return wire.Value{}, nil, true
}

// appErr passes gateway sentinels through and wraps anything else as an
// application error.
func appErr(err error) error {
	if errors.Is(err, ErrForeignRef) || errors.Is(err, ErrBadRequest) || errors.Is(err, ErrDeadline) {
		return err
	}
	return &AppError{Msg: err.Error()}
}

// importValues translates request arguments from session handles to
// world refs, rejecting handles this namespace never issued.
func (s *session) importValues(vals []wire.Value) ([]wire.Value, error) {
	out := make([]wire.Value, len(vals))
	for i, v := range vals {
		var err error
		if out[i], err = wire.MapRefs(v, s.importRef); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *session) importRef(ref wire.Value) (wire.Value, error) {
	_, handle, _ := ref.AsRef()
	e, ok := s.ns.Lookup(handle)
	if !ok {
		return wire.Value{}, ErrForeignRef
	}
	return wire.Ref(e.Class, e.Hash), nil
}

// exportValue translates a result for the wire: every object ref is
// pinned (so it survives the Exec frame's release) and renamed to a
// session handle. Must run inside the Exec frame, while the frame still
// retains the object.
func (s *session) exportValue(v wire.Value) (wire.Value, error) {
	return wire.MapRefs(v, s.exportRef)
}

// exportRef pins one object and names it in the session's namespace
// (world.Runtime.PinNamed). A namespace drained by teardown racing this
// request refuses it.
func (s *session) exportRef(ref wire.Value) (wire.Value, error) {
	handle, err := s.srv.w.Untrusted().PinNamed(s.ns, ref)
	if err != nil {
		return wire.Value{}, err
	}
	if handle == 0 {
		return wire.Value{}, ErrDraining
	}
	class, _, _ := ref.AsRef()
	return wire.Ref(class, handle), nil
}

// teardown releases everything the session owns: the namespace drains,
// each retained object is unpinned, and a collect + sweep pushes the
// freed proxies through the existing GC-release path so their mirrors
// (and any enclave-side state) are reclaimed. Runs after the read loop
// and all in-flight requests have finished.
func (s *session) teardown() {
	s.closeConn()
	s.wg.Wait()
	entries := s.ns.Drain()
	if len(entries) == 0 {
		return
	}
	if s.dead.Load() || s.srv.recovering.Load() {
		// The session was invalidated by recovery: its objects died with
		// the enclave incarnation that owned them, and the world may be
		// mid-rebuild. Nothing to release.
		return
	}
	rt := s.srv.w.Untrusted()
	if rt == nil {
		// The world was killed out from under the gateway (failover
		// drills do this): the objects died with the enclave.
		return
	}
	for _, e := range entries {
		if err := rt.Unpin(wire.Ref(e.Class, e.Hash)); err != nil {
			s.srv.opts.Logf("serve: session %d unpin %s#%d: %v", s.id, e.Class, e.Handle, err)
		}
	}
	if err := rt.Collect(); err != nil {
		s.srv.opts.Logf("serve: session %d collect: %v", s.id, err)
		return
	}
	if err := s.srv.w.SweepOnce(rt); err != nil {
		s.srv.opts.Logf("serve: session %d sweep: %v", s.id, err)
	}
}
