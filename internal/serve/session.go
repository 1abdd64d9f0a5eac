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
	"montsalvat/internal/world"
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
// requests execute on the server's lane workers; admission itself runs
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

// dispatch admits one request and hands it to a lane worker (call).
// Typed rejections (draining, recovering, overload, deadline) reply
// immediately without executing.
func (s *session) dispatch(req request) {
	var deadline time.Time
	budget := requestTimeout
	if req.budget > 0 && req.budget < budget {
		budget = req.budget
	}
	deadline = time.Now().Add(budget)

	if err := s.srv.adm.refusal(); err != nil {
		s.reject(req.id, err)
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
	if err := s.srv.adm.acquire(deadline); err != nil {
		s.reject(req.id, err)
		return
	}
	s.srv.requests.Add(1)
	s.inflight.Add(1)
	s.wg.Add(1)
	c := calls.Get().(*call)
	*c = call{s: s, req: req, deadline: deadline, start: time.Now()}
	// A call waits here only for an admitted one to finish; blocking the
	// session's read loop meanwhile is the gateway's back-pressure.
	s.srv.calls <- c
}

// call is one admitted request on its way through a lane worker, in a
// pooled record that complete returns.
type call struct {
	s        *session
	req      request
	deadline time.Time
	start    time.Time
	sp       *telemetry.Span
}

var calls = sync.Pool{New: func() any { return new(call) }}

// run executes the call on the worker's lane and completes it, or hands
// completion to the Journal hook.
func (c *call) run(lane *world.Lane) {
	// Continue the client's trace across the session frame: the span
	// joins the injected context (or samples a fresh root for untraced
	// clients) and is handed to the execution frame, so the world's
	// proxy-call spans become its children.
	if tracer := c.s.srv.tracer; tracer != nil {
		c.sp = tracer.StartRemote(c.req.trace, "serve "+c.req.op)
	}
	c.sp.SetNode(c.s.srv.opts.Node)
	c.sp.SetQueueWait(time.Since(c.start))
	out, m, err := c.s.execute(c, lane)
	if j := c.s.srv.opts.Journal; err == nil && m.Op != "" && j != nil {
		c.journal(j, m, out)
		return
	}
	c.complete(out, err)
}

// journal hands the mutation c made to the Journal hook, which owns
// completion from here: it calls back once the mutation is durable, and
// the OK is withheld on a journal error — the mutation ran but is not
// durable, so the client must not be told it succeeded. A second call
// back, by a buggy hook, is dropped.
func (c *call) journal(j func(Mutation, func(error)), m Mutation, out wire.Value) {
	m.Trace = c.sp.Context()
	var once sync.Once
	j(m, func(jerr error) {
		once.Do(func() {
			if jerr != nil {
				c.complete(wire.Value{}, &AppError{Msg: "journal: " + jerr.Error()})
				return
			}
			c.complete(out, nil)
		})
	})
}

// complete finishes the request — span, reply, and the admission
// epilogue — and recycles the record. It runs exactly once per call:
// inline on the worker, or from the Journal hook once the mutation is
// durable.
func (c *call) complete(result wire.Value, err error) {
	s, sp := c.s, c.sp
	var ws *WrongShardError
	if errors.As(err, &ws) {
		sp.SetEpoch(ws.Epoch)
		s.srv.events.Emit(telemetry.EventRedirect, s.srv.opts.Node, c.req.trace.TraceID,
			"%s -> owner %d epoch %d", c.req.op, ws.Owner, ws.Epoch)
	}
	sp.Finish(err)
	if err != nil {
		s.reject(c.req.id, err)
	} else {
		s.reply(c.req.id, response{status: statusOK, result: result})
	}
	s.srv.hRequest.ObserveDuration(time.Since(c.start))
	s.srv.adm.release()
	s.inflight.Add(-1)
	s.wg.Done()
	*c = call{}
	calls.Put(c)
}

// reject counts a request that failed with err and replies with its
// typed status.
func (s *session) reject(id int64, err error) {
	s.reply(id, response{status: s.srv.countReject(err), message: errMessage(err)})
}

// reply seals and writes one response frame.
func (s *session) reply(id int64, r response) {
	r.id = id
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	_ = s.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
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

// execute runs one admitted request against the world, on lane. All
// object traffic goes through the session namespace; the world only ever
// sees hashes this session legitimately owns. c.sp (nil-safe) is the
// request's serve span: execution frames carry it so proxy-call spans
// nest under it. A state-changing request that ran returns the Mutation
// for the Journal hook; any other returns a zero one.
func (s *session) execute(c *call, lane *world.Lane) (wire.Value, Mutation, error) {
	req, sp := c.req, c.sp
	if time.Now().After(c.deadline) {
		return wire.Value{}, Mutation{}, ErrDeadline
	}
	switch req.op {
	case opPing:
		return wire.Null(), Mutation{}, nil

	case opRelease:
		e, ok := s.ns.Remove(req.handle)
		if !ok {
			return wire.Value{}, Mutation{}, ErrForeignRef
		}
		// Unpinning makes the object collectable; the mirror is freed by
		// the regular GC-release path (next sweep), not synchronously.
		if err := s.srv.w.Untrusted().Unpin(wire.Ref(e.Class, e.Hash)); err != nil {
			return wire.Value{}, Mutation{}, &AppError{Msg: err.Error()}
		}
		return wire.Null(), Mutation{}, nil

	case opNew:
		if err := s.srv.checkClass(req.class); err != nil {
			return wire.Value{}, Mutation{}, err
		}
		if err := s.shardCheck(opNew, req.class, "", req.args); err != nil {
			return wire.Value{}, Mutation{}, err
		}
		args, err := s.importValues(req.args)
		if err != nil {
			return wire.Value{}, Mutation{}, err
		}
		out, err := s.exec(sp, lane, func(env classmodel.Env) (wire.Value, error) {
			return env.New(req.class, args...)
		})
		return out, Mutation{Op: opNew, Class: req.class, Args: args}, err

	case opBind:
		provider := s.srv.lookupExport(req.class)
		if provider == nil {
			return wire.Value{}, Mutation{}, fmt.Errorf("%w: no export named %q", ErrBadRequest, req.class)
		}
		out, err := s.exec(sp, lane, provider)
		return out, Mutation{}, err

	case opCall:
		e, ok := s.ns.Lookup(req.handle)
		if !ok {
			return wire.Value{}, Mutation{}, ErrForeignRef
		}
		if err := s.shardCheck(opCall, e.Class, req.method, req.args); err != nil {
			return wire.Value{}, Mutation{}, err
		}
		args, err := s.importValues(req.args)
		if err != nil {
			return wire.Value{}, Mutation{}, err
		}
		out, err := s.exec(sp, lane, func(env classmodel.Env) (wire.Value, error) {
			return env.Call(wire.Ref(e.Class, e.Hash), req.method, args...)
		})
		return out, Mutation{Op: opCall, Class: e.Class, Method: req.method, Args: args}, err
	}
	return wire.Value{}, Mutation{}, ErrBadRequest
}

// exec runs body in an untrusted frame on lane, carrying sp, and
// translates its result for the wire: every object ref is pinned (so it
// survives the frame's release) and renamed to a session handle — inside
// the frame, while the frame still retains the object.
func (s *session) exec(sp *telemetry.Span, lane *world.Lane, body func(env classmodel.Env) (wire.Value, error)) (wire.Value, error) {
	var out wire.Value
	err := s.srv.w.ExecSpan(false, sp, lane, func(env classmodel.Env) error {
		v, err := body(env)
		if err == nil {
			out, err = wire.MapRefs(v, s.exportRef)
		}
		return err
	})
	if err != nil {
		return wire.Value{}, appErr(err)
	}
	return out, nil
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
	if s.dead.Load() || s.srv.adm.refusal() == ErrRecovering {
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
