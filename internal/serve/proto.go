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
// path. Requests fan in through the world's boundary dispatch layer, so
// cross-session transition batching and switchless routing apply to
// served traffic. Admission control (bounded in-flight, per-session and
// global limits, deadline propagation, graceful drain) makes overload
// degrade into typed ErrOverloaded/ErrDraining rejections instead of
// collapse.
package serve

import (
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"montsalvat/internal/sgx"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
)

// Protocol identifiers. The version tag is baked into every magic so a
// future incompatible revision fails the handshake instead of
// misparsing.
const (
	msgHello  = "msv/hello/1"
	msgAttest = "msv/attest/1"
	msgReject = "msv/reject/1"
	msgAck    = "msv/ack/1"
	msgReady  = "msv/ready/1"

	// kxLabel salts the transcript hash that becomes the quote's report
	// data, binding the session key exchange to the enclave identity.
	kxLabel = "msv/kx/1"
	// keyLabel salts session-key derivation from the ECDH shared secret.
	keyLabel = "msv/session-key/1"
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

// maxFrameBytes bounds one length-prefixed frame; the decoder rejects
// larger announcements before allocating (served traffic is adversarial).
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
	ErrHandshake = errors.New("serve: attestation handshake failed")
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

// wrongShardMessage is the wire message for a wrong-shard rejection;
// parseWrongShard rebuilds the typed error client-side.
func wrongShardMessage(e *WrongShardError) string {
	return fmt.Sprintf("owner=%d epoch=%d", e.Owner, e.Epoch)
}

// errMessage renders the wire message for a server-side error:
// structured for wrong-shard redirects (so the client rebuilds the
// typed form and can extract the owner), plain text otherwise.
func errMessage(err error) string {
	var ws *WrongShardError
	if errors.As(err, &ws) {
		return wrongShardMessage(ws)
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

// statusErr maps a rejection status to its sentinel.
func statusErr(status string) error {
	switch status {
	case statusOverloaded:
		return ErrOverloaded
	case statusDraining:
		return ErrDraining
	case statusRecovering:
		return ErrRecovering
	case statusDeadline:
		return ErrDeadline
	case statusForeignRef:
		return ErrForeignRef
	case statusBadRequest:
		return ErrBadRequest
	case statusSession:
		return ErrSessionLimit
	case statusWrongShard:
		return ErrWrongShard
	default:
		return nil
	}
}

// errStatus maps a server-side execution error to its wire status.
func errStatus(err error) string {
	switch {
	case errors.Is(err, ErrOverloaded):
		return statusOverloaded
	case errors.Is(err, ErrDraining):
		return statusDraining
	case errors.Is(err, ErrRecovering):
		return statusRecovering
	case errors.Is(err, ErrDeadline):
		return statusDeadline
	case errors.Is(err, ErrForeignRef):
		return statusForeignRef
	case errors.Is(err, ErrBadRequest):
		return statusBadRequest
	case errors.Is(err, ErrSessionLimit):
		return statusSession
	case errors.Is(err, ErrWrongShard):
		return statusWrongShard
	default:
		return statusAppError
	}
}

// AppError carries an application-level failure (the served method
// returned an error) back to the client, distinct from gateway
// rejections.
type AppError struct{ Msg string }

func (e *AppError) Error() string { return "serve: application error: " + e.Msg }

// ---- frame I/O --------------------------------------------------------

// writeFrame writes one length-prefixed frame and returns the bytes put
// on the wire. Header and payload go out in a single Write so each frame
// costs one syscall on an unbuffered conn.
func writeFrame(w io.Writer, payload []byte) (int, error) {
	if len(payload) > maxFrameBytes {
		return 0, fmt.Errorf("%w: frame of %d bytes", ErrBadRequest, len(payload))
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	copy(buf[4:], payload)
	if _, err := w.Write(buf); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// readFrame reads one length-prefixed frame, rejecting oversized
// announcements before allocating.
func readFrame(r io.Reader) ([]byte, error) {
	return readFrameInto(r, nil)
}

// readFrameInto is readFrame into buf when the frame fits its capacity
// (a fresh buffer otherwise). A read loop passes the previous frame back
// in once nothing refers to it: opening is in place and the decoders
// copy out everything they keep.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	// The header lands in buf too: r is an interface, and a local array
	// handed to it would be heap-allocated per frame. One large frame
	// does not pin its buffer to the connection.
	if cap(buf) < frameHeader || cap(buf) > keepFrameBytes {
		buf = make([]byte, frameHeader, 512)
	}
	hdr := buf[:frameHeader]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrameBytes {
		return nil, fmt.Errorf("serve: frame of %d bytes exceeds limit", n)
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// ---- session channel crypto ------------------------------------------

// sessionCipher seals post-handshake frames with the session key
// (AES-256-GCM). Nonces are direction-tagged counters, never
// transmitted: both sides keep strictly ordered send/receive counters,
// which doubles as replay and reordering protection. The sender must be
// externally serialised (the connection write lock); the receiver is the
// single read loop.
type sessionCipher struct {
	aead    cipher.AEAD
	sendDir byte
	recvDir byte
	sendCtr uint64
	recvCtr uint64
	// Nonce scratch of the one sender and the one receiver: the AEAD is
	// called through an interface, so a nonce built on the stack would
	// be moved to the heap for every frame.
	sendNonce [12]byte
	recvNonce [12]byte
}

// Directions: client→server frames use dir 1, server→client dir 2.
const (
	dirClient byte = 1
	dirServer byte = 2
)

func newSessionCipher(key [32]byte, client bool) (*sessionCipher, error) {
	aead, err := sgx.NewChannelAEAD(key)
	if err != nil {
		return nil, err
	}
	c := &sessionCipher{aead: aead, sendDir: dirServer, recvDir: dirClient}
	if client {
		c.sendDir, c.recvDir = dirClient, dirServer
	}
	return c, nil
}

// nextSendNonce returns the nonce of the next outbound frame and
// advances the send counter.
func (c *sessionCipher) nextSendNonce() []byte {
	c.sendNonce[0] = c.sendDir
	binary.BigEndian.PutUint64(c.sendNonce[4:], c.sendCtr)
	c.sendCtr++
	return c.sendNonce[:]
}

// seal encrypts one outbound frame payload.
func (c *sessionCipher) seal(plain []byte) []byte {
	return c.aead.Seal(nil, c.nextSendNonce(), plain, nil)
}

// frameHeader is the room a wire frame leaves for its length prefix;
// keepFrameBytes is the largest frame buffer a connection reuses.
const (
	frameHeader    = 4
	keepFrameBytes = 64 << 10
)

// newSendBuf returns an empty reusable outbound frame buffer.
func newSendBuf() []byte { return make([]byte, frameHeader, 512) }

// sealFrame turns frame — frameHeader spare bytes, then a plaintext
// payload encoded behind them — into the wire frame ([4-byte
// length][sealed payload]): the payload is sealed where it lies and the
// tag appended, growing frame as needed. The caller owns the buffer's
// reuse discipline (the connection write lock).
func (c *sessionCipher) sealFrame(frame []byte) ([]byte, error) {
	frame = c.aead.Seal(frame[:frameHeader], c.nextSendNonce(), frame[frameHeader:], nil)
	if len(frame)-frameHeader > maxFrameBytes {
		return frame[:0], fmt.Errorf("%w: frame of %d bytes", ErrBadRequest, len(frame)-frameHeader)
	}
	binary.BigEndian.PutUint32(frame[:frameHeader], uint32(len(frame)-frameHeader))
	return frame, nil
}

// open decrypts the next inbound frame payload in order, in place.
func (c *sessionCipher) open(sealed []byte) ([]byte, error) {
	c.recvNonce[0] = c.recvDir
	binary.BigEndian.PutUint64(c.recvNonce[4:], c.recvCtr)
	plain, err := c.aead.Open(sealed[:0], c.recvNonce[:], sealed, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: frame auth: %v", ErrHandshake, err)
	}
	c.recvCtr++
	return plain, nil
}

// sessionKey derives the channel key from the ECDH shared secret and the
// attested transcript hash, so the key is bound to the quoted identity.
func sessionKey(shared, reportData []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte(keyLabel))
	h.Write(shared)
	h.Write(reportData)
	var key [32]byte
	copy(key[:], h.Sum(nil))
	return key
}

// transcriptHash computes the handshake transcript digest used as quote
// report data: it binds both key-exchange public keys and the client
// nonce, so the quote attests this session's channel, not a replayed
// one.
func transcriptHash(clientPub, serverPub, nonce []byte) []byte {
	h := sha256.New()
	h.Write([]byte(kxLabel))
	h.Write(clientPub)
	h.Write(serverPub)
	h.Write(nonce)
	return h.Sum(nil)
}

// ---- handshake messages ----------------------------------------------

func encodeHello(pub, nonce []byte) []byte {
	return wire.MarshalList([]wire.Value{wire.Str(msgHello), wire.Bytes(pub), wire.Bytes(nonce)})
}

func decodeHello(buf []byte) (pub, nonce []byte, err error) {
	vs, err := wire.UnmarshalList(buf)
	if err != nil || len(vs) != 3 {
		return nil, nil, fmt.Errorf("%w: malformed hello", ErrHandshake)
	}
	magic, _ := vs[0].AsStr()
	if magic != msgHello {
		return nil, nil, fmt.Errorf("%w: unexpected message %q", ErrHandshake, magic)
	}
	pub, ok1 := vs[1].AsBytes()
	nonce, ok2 := vs[2].AsBytes()
	if !ok1 || !ok2 || len(pub) == 0 || len(nonce) == 0 {
		return nil, nil, fmt.Errorf("%w: malformed hello", ErrHandshake)
	}
	return pub, nonce, nil
}

func encodeAttest(serverPub []byte, q sgx.Quote) []byte {
	return wire.MarshalList([]wire.Value{
		wire.Str(msgAttest),
		wire.Bytes(serverPub),
		wire.Bytes(q.Measurement[:]),
		wire.Bytes(q.MRSigner[:]),
		wire.Bytes(q.ReportData),
		wire.Bytes(q.MAC[:]),
	})
}

func decodeAttest(buf []byte) (serverPub []byte, q sgx.Quote, err error) {
	vs, err := wire.UnmarshalList(buf)
	if err != nil || len(vs) != 6 {
		return nil, sgx.Quote{}, fmt.Errorf("%w: malformed attestation", ErrHandshake)
	}
	magic, _ := vs[0].AsStr()
	if magic == msgReject {
		// The server refused before attesting (draining, session limit).
		status, _ := vs[1].AsStr()
		if serr := statusErr(status); serr != nil {
			return nil, sgx.Quote{}, serr
		}
		return nil, sgx.Quote{}, fmt.Errorf("%w: rejected (%s)", ErrHandshake, status)
	}
	if magic != msgAttest {
		return nil, sgx.Quote{}, fmt.Errorf("%w: unexpected message %q", ErrHandshake, magic)
	}
	serverPub, _ = vs[1].AsBytes()
	meas, _ := vs[2].AsBytes()
	signer, _ := vs[3].AsBytes()
	report, _ := vs[4].AsBytes()
	mac, _ := vs[5].AsBytes()
	if len(serverPub) == 0 || len(meas) != 32 || len(signer) != 32 || len(mac) != 32 {
		return nil, sgx.Quote{}, fmt.Errorf("%w: malformed attestation", ErrHandshake)
	}
	copy(q.Measurement[:], meas)
	copy(q.MRSigner[:], signer)
	copy(q.MAC[:], mac)
	q.ReportData = report
	return serverPub, q, nil
}

// encodeReject is the plaintext pre-attestation refusal (draining or
// session limit): the server cannot yet seal frames for this client.
func encodeReject(status string) []byte {
	// Padded to the attest arity so decodeAttest can parse either shape.
	return wire.MarshalList([]wire.Value{
		wire.Str(msgReject), wire.Str(status), wire.Null(), wire.Null(), wire.Null(), wire.Null(),
	})
}

func encodeAck() []byte {
	return wire.MarshalList([]wire.Value{wire.Str(msgAck)})
}

func decodeAck(buf []byte) error {
	vs, err := wire.UnmarshalList(buf)
	if err != nil || len(vs) != 1 {
		return fmt.Errorf("%w: malformed ack", ErrHandshake)
	}
	if magic, _ := vs[0].AsStr(); magic != msgAck {
		return fmt.Errorf("%w: unexpected message", ErrHandshake)
	}
	return nil
}

func encodeReady(sessionID int64) []byte {
	return wire.MarshalList([]wire.Value{wire.Str(msgReady), wire.Int(sessionID)})
}

func decodeReady(buf []byte) (int64, error) {
	vs, err := wire.UnmarshalList(buf)
	if err != nil || len(vs) != 2 {
		return 0, fmt.Errorf("%w: malformed ready", ErrHandshake)
	}
	if magic, _ := vs[0].AsStr(); magic != msgReady {
		return 0, fmt.Errorf("%w: unexpected message", ErrHandshake)
	}
	id, _ := vs[1].AsInt()
	return id, nil
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
