// Package serve implements the enclave gateway: a network serving layer
// that multiplexes many remote clients onto one partitioned World.
//
// Montsalvat's proxy/mirror protocol (paper §5.2) shields a single
// co-located untrusted image; the gateway generalises it to remote,
// mutually distrusting clients. Each TCP connection runs an attestation
// handshake on connect — the client verifies an SGX quote over the
// session key exchange, binding the channel to the enclave measurement —
// and then speaks length-prefixed, AEAD-sealed frames carrying requests
// against the world's application classes. Every session owns a private
// handle namespace (registry.Namespace), so one client's proxies can
// neither collide with nor leak into another's, and session teardown
// releases all of the session's objects through the existing GC-release
// path. Each admitted request runs on a worker that holds an enclave
// lane (world.Lane), so its calls into the enclave are switchless
// hand-offs to that worker's resident thread, and its void calls join
// the world's cross-session batching queue as before. Admission control
// (bounded in-flight, per-session and global limits, deadline
// propagation, graceful drain) makes overload degrade into typed
// ErrOverloaded/ErrDraining rejections instead of collapse.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"montsalvat/internal/channel"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
)

// Request operations.
const (
	opNew     = "new"
	opCall    = "call"
	opRelease = "release"
	opPing    = "ping"
	opBind    = "bind"
)

// Response status codes. statusErr maps them onto the package's typed
// errors client-side.
const (
	statusOK         = "ok"
	statusOverloaded = "overloaded"
	statusDraining   = "draining"
	statusRecovering = "recovering"
	statusDeadline   = "deadline"
	statusForeignRef = "foreign-ref"
	statusBadRequest = "bad-request"
	statusAppError   = "app-error"
	statusSession    = "session-limit"
	statusWrongShard = "wrong-shard"
)

// sessionPlane is the gateway's plane of the attested channel: the
// session purpose tag and the budget of one sealed request or response
// frame (served traffic is adversarial; nothing larger is read).
var sessionPlane = channel.Plane{Purpose: channel.Session, MaxFrame: maxFrameBytes}

const maxFrameBytes = 1 << 20

// Typed gateway errors. Server-side rejections travel as status codes
// and resurface client-side as these sentinels (wrapped with detail).
var (
	// ErrOverloaded rejects a request that found the bounded in-flight
	// queue full: the gateway is saturated; retry with backoff.
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrDraining rejects work arriving while the gateway shuts down.
	ErrDraining = errors.New("serve: draining")
	// ErrRecovering rejects work arriving while the gateway restores its
	// enclave from durable state (Server.Recover). Unlike ErrDraining the
	// gateway is coming back: reconnect and retry shortly. Existing
	// sessions are invalidated — their keys and handles died with the old
	// enclave — so recovery surfaces client-side as a dropped connection
	// or this error, and the remedy is a fresh Dial.
	ErrRecovering = errors.New("serve: recovering; retry shortly")
	// ErrDeadline rejects a request whose propagated deadline expired
	// before (or while) it could be served.
	ErrDeadline = errors.New("serve: deadline exceeded")
	// ErrForeignRef rejects a handle the requesting session does not
	// own — the cross-session isolation boundary.
	ErrForeignRef = errors.New("serve: foreign object handle")
	// ErrBadRequest rejects malformed or out-of-surface requests.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrSessionLimit rejects a connection beyond MaxSessions.
	ErrSessionLimit = errors.New("serve: session limit reached")
	// ErrHandshake covers attestation-handshake failures: forged or
	// mismatched quotes, wrong platform, malformed hellos.
	ErrHandshake = channel.ErrHandshake
	// ErrClosed reports use of a closed client or server.
	ErrClosed = errors.New("serve: connection closed")
	// ErrWrongShard rejects a request whose key this gateway does not
	// own: in a sharded fabric, the routing redirect. The concrete error
	// is a *WrongShardError naming the owning shard and the routing-table
	// epoch the rejecting gateway was configured with; clients refresh
	// their routing table and retry toward the owner (with a redirect
	// cap, so a stale or disagreeing topology cannot loop forever).
	ErrWrongShard = errors.New("serve: wrong shard")
)

// WrongShardError is the typed redirect behind ErrWrongShard. It
// travels as a wire status plus a structured message and is rebuilt
// client-side, so errors.As works across the connection.
type WrongShardError struct {
	// Owner is the shard ID that owns the rejected key.
	Owner int
	// Epoch is the routing-table epoch of the rejecting gateway. A
	// client holding a lower epoch knows its table is stale.
	Epoch uint64
}

func (e *WrongShardError) Error() string {
	return fmt.Sprintf("serve: wrong shard: owner=%d epoch=%d", e.Owner, e.Epoch)
}

// Unwrap makes errors.Is(err, ErrWrongShard) hold for the typed form.
func (e *WrongShardError) Unwrap() error { return ErrWrongShard }

// message is the wire message for a wrong-shard rejection;
// parseWrongShard rebuilds the typed error client-side.
func (e *WrongShardError) message() string {
	return fmt.Sprintf("owner=%d epoch=%d", e.Owner, e.Epoch)
}

// errMessage renders the wire message for a server-side error:
// structured for wrong-shard redirects (so the client rebuilds the
// typed form and can extract the owner), plain text otherwise.
func errMessage(err error) string {
	var ws *WrongShardError
	if errors.As(err, &ws) {
		return ws.message()
	}
	return err.Error()
}

func parseWrongShard(message string) error {
	var e WrongShardError
	if _, err := fmt.Sscanf(message, "owner=%d epoch=%d", &e.Owner, &e.Epoch); err != nil {
		// Malformed detail: still a wrong-shard rejection, just without
		// a usable redirect target.
		return fmt.Errorf("%w: %s", ErrWrongShard, message)
	}
	return &e
}

// rejections pairs each rejection status with its sentinel and the
// gateway counter a rejection for it moves (nil: none).
var rejections = []struct {
	status  string
	err     error
	counter func(*Server) *atomic.Uint64
}{
	{statusOverloaded, ErrOverloaded, func(s *Server) *atomic.Uint64 { return &s.rejOverload }},
	{statusDraining, ErrDraining, func(s *Server) *atomic.Uint64 { return &s.rejDraining }},
	{statusRecovering, ErrRecovering, func(s *Server) *atomic.Uint64 { return &s.rejRecovering }},
	{statusDeadline, ErrDeadline, func(s *Server) *atomic.Uint64 { return &s.rejDeadline }},
	{statusForeignRef, ErrForeignRef, func(s *Server) *atomic.Uint64 { return &s.rejForeign }},
	{statusBadRequest, ErrBadRequest, nil},
	{statusSession, ErrSessionLimit, func(s *Server) *atomic.Uint64 { return &s.rejSession }},
	{statusWrongShard, ErrWrongShard, func(s *Server) *atomic.Uint64 { return &s.rejWrongShard }},
}

// statusErr maps a rejection status to its sentinel; nil for any other.
func statusErr(status string) error {
	for _, r := range rejections {
		if r.status == status {
			return r.err
		}
	}
	return nil
}

// countReject counts a request or handshake turned away with err — as
// an application error when err is no rejection — and returns the wire
// status err travels as.
func (srv *Server) countReject(err error) string {
	for _, r := range rejections {
		if errors.Is(err, r.err) {
			if r.counter != nil {
				r.counter(srv).Add(1)
			}
			return r.status
		}
	}
	srv.appErrors.Add(1)
	return statusAppError
}

// AppError carries an application-level failure (the served method
// returned an error) back to the client, distinct from gateway
// rejections.
type AppError struct{ Msg string }

func (e *AppError) Error() string { return "serve: application error: " + e.Msg }

// handshakeErr gives a refusal the gateway sent in place of its
// attestation (draining, recovering, session limit) its typed error, on
// the end that sent it and the end that read it alike.
func handshakeErr(err error) error {
	var rej *channel.RejectError
	if errors.As(err, &rej) {
		if serr := statusErr(rej.Status); serr != nil {
			return serr
		}
	}
	return err
}

// ---- requests and responses ------------------------------------------

// request is one decoded client operation.
type request struct {
	id     int64
	op     string
	budget time.Duration         // remaining deadline budget propagated by the client
	trace  telemetry.SpanContext // caller's span context; zero = no trace
	class  string                // opNew
	handle int64                 // opCall / opRelease receiver
	method string                // opCall
	args   []wire.Value          // refs are session handles, not world hashes
}

// appendRequest encodes r onto dst as one list: five common fields, then
// the operation's own.
func appendRequest(dst []byte, r request) []byte {
	own := 0
	switch r.op {
	case opNew:
		own = 2
	case opCall:
		own = 3
	case opRelease, opBind:
		own = 1
	}
	dst = wire.AppendListHeader(dst, 5+own)
	dst = wire.Append(dst, wire.Int(r.id))
	dst = wire.Append(dst, wire.Str(r.op))
	dst = wire.Append(dst, wire.Int(int64(r.budget/time.Millisecond)))
	dst = wire.Append(dst, wire.Int(int64(r.trace.TraceID)))
	dst = wire.Append(dst, wire.Int(int64(r.trace.SpanID)))
	switch r.op {
	case opNew:
		dst = wire.Append(dst, wire.Str(r.class))
		dst = wire.AppendValues(dst, r.args)
	case opCall:
		dst = wire.Append(dst, wire.Int(r.handle))
		dst = wire.Append(dst, wire.Str(r.method))
		dst = wire.AppendValues(dst, r.args)
	case opRelease:
		dst = wire.Append(dst, wire.Int(r.handle))
	case opBind:
		dst = wire.Append(dst, wire.Str(r.class)) // the export name
	}
	return dst
}

func decodeRequest(buf []byte) (request, error) {
	vs, err := wire.UnmarshalList(buf)
	if err != nil {
		// The frame opened under the session key, so its sender is the
		// session's client, whatever it encoded. Tell it which request
		// was refused, when the id can still be read, instead of
		// dropping the connection.
		return request{id: peekRequestID(buf)}, fmt.Errorf("%w: malformed request: %v", ErrBadRequest, err)
	}
	if len(vs) < 5 {
		return request{}, fmt.Errorf("%w: malformed request", ErrBadRequest)
	}
	var r request
	id, ok := vs[0].AsInt()
	if !ok {
		return request{}, fmt.Errorf("%w: request id", ErrBadRequest)
	}
	r.id = id
	r.op, _ = vs[1].AsStr()
	budget, _ := vs[2].AsInt()
	r.budget = time.Duration(budget) * time.Millisecond
	traceID, _ := vs[3].AsInt()
	spanID, _ := vs[4].AsInt()
	r.trace = telemetry.SpanContext{TraceID: uint64(traceID), SpanID: uint64(spanID)}
	rest := vs[5:]
	argList := func(v wire.Value) ([]wire.Value, error) {
		args, ok := v.AsList()
		if !ok {
			return nil, fmt.Errorf("%w: argument vector", ErrBadRequest)
		}
		return args, nil
	}
	switch r.op {
	case opNew:
		if len(rest) != 2 {
			return r, fmt.Errorf("%w: new arity", ErrBadRequest)
		}
		r.class, _ = rest[0].AsStr()
		if r.args, err = argList(rest[1]); err != nil {
			return r, err
		}
	case opCall:
		if len(rest) != 3 {
			return r, fmt.Errorf("%w: call arity", ErrBadRequest)
		}
		r.handle, _ = rest[0].AsInt()
		r.method, _ = rest[1].AsStr()
		if r.args, err = argList(rest[2]); err != nil {
			return r, err
		}
	case opRelease:
		if len(rest) != 1 {
			return r, fmt.Errorf("%w: release arity", ErrBadRequest)
		}
		r.handle, _ = rest[0].AsInt()
	case opBind:
		if len(rest) != 1 {
			return r, fmt.Errorf("%w: bind arity", ErrBadRequest)
		}
		r.class, _ = rest[0].AsStr()
	case opPing:
	default:
		return r, fmt.Errorf("%w: unknown op %q", ErrBadRequest, r.op)
	}
	return r, nil
}

// peekRequestID reads the id — the first element of the request list —
// out of a request that did not decode as a whole; 0 when even that much
// is not there.
func peekRequestID(buf []byte) int64 {
	if len(buf) == 0 || wire.Kind(buf[0]) != wire.KindList {
		return 0
	}
	_, n := binary.Uvarint(buf[1:])
	if n <= 0 {
		return 0
	}
	first, _, err := wire.Unmarshal(buf[1+n:])
	if err != nil {
		return 0
	}
	id, _ := first.AsInt()
	return id
}

// response is one server reply.
type response struct {
	id      int64
	status  string
	result  wire.Value // statusOK
	message string     // rejections and app errors
}

func appendResponse(dst []byte, r response) []byte {
	payload := r.result
	if r.status != statusOK {
		payload = wire.Str(r.message)
	}
	dst = wire.AppendListHeader(dst, 3)
	dst = wire.Append(dst, wire.Int(r.id))
	dst = wire.Append(dst, wire.Str(r.status))
	return wire.Append(dst, payload)
}

func decodeResponse(buf []byte) (response, error) {
	vs, err := wire.UnmarshalList(buf)
	if err != nil || len(vs) != 3 {
		return response{}, fmt.Errorf("serve: malformed response")
	}
	var r response
	r.id, _ = vs[0].AsInt()
	r.status, _ = vs[1].AsStr()
	if r.status == statusOK {
		r.result = vs[2]
	} else {
		r.message, _ = vs[2].AsStr()
	}
	return r, nil
}

// err converts a non-OK response into the matching typed error.
func (r response) err() error {
	if r.status == statusOK {
		return nil
	}
	if r.status == statusWrongShard {
		return parseWrongShard(r.message)
	}
	if serr := statusErr(r.status); serr != nil {
		if r.message != "" {
			return fmt.Errorf("%w: %s", serr, r.message)
		}
		return serr
	}
	return &AppError{Msg: r.message}
}
