package serve

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"montsalvat/internal/channel"
	"montsalvat/internal/sgx"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
)

// ClientConfig configures Dial. The TCP dial and the handshake each run
// under channel.HandshakeTimeout; a request without a deadline of its
// own gets requestTimeout, which travels to the server as its budget.
type ClientConfig struct {
	// Platform verifies the server's attestation quote. Required; must
	// share the attestation key with the gateway (same seed).
	Platform *sgx.Platform
	// Measurement is the expected enclave measurement. The handshake
	// fails unless the quote carries exactly this identity — connecting
	// to the wrong (or tampered) enclave is an error, not a downgrade.
	Measurement [32]byte
}

// Handle names a server-side object owned by this client's session.
// The zero Handle is invalid.
type Handle struct {
	Class string
	ID    int64
}

// Value renders the handle as a wire ref for use in request arguments.
func (h Handle) Value() wire.Value { return wire.Ref(h.Class, h.ID) }

// AsHandle extracts a Handle from a result value that is an object ref.
func AsHandle(v wire.Value) (Handle, bool) {
	class, id, ok := v.AsRef()
	if !ok {
		return Handle{}, false
	}
	return Handle{Class: class, ID: id}, true
}

// Client is one attested gateway session. It is safe for concurrent
// use: calls are demultiplexed by request id, so many goroutines can
// issue requests over the single connection.
type Client struct {
	conn net.Conn
	ch   *channel.Conn // read by readLoop alone

	writeMu sync.Mutex // serialises the channel's senders

	mu      sync.Mutex
	pending map[int64]*pendingCall
	readErr error
	closed  bool

	seq atomic.Int64
}

// Dial connects to a gateway, runs the attestation handshake, and
// verifies the enclave identity before any request can be issued.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("%w: ClientConfig.Platform is required", ErrHandshake)
	}
	conn, err := net.DialTimeout("tcp", addr, channel.HandshakeTimeout)
	if err != nil {
		return nil, err
	}
	// The client speaks for no enclave: the handshake is the one-sided
	// case, and fails unless the gateway's quote carries cfg.Measurement.
	ch, err := channel.Initiate(conn, sessionPlane, channel.Identity{Platform: cfg.Platform}, "", cfg.Measurement)
	if err != nil {
		_ = conn.Close()
		return nil, handshakeErr(err)
	}
	c := &Client{conn: conn, ch: ch, pending: make(map[int64]*pendingCall)}
	go c.readLoop()
	return c, nil
}

// readLoop demultiplexes responses to their waiting callers.
func (c *Client) readLoop() {
	for {
		plain, err := c.ch.Recv()
		if err != nil {
			c.fail(err)
			return
		}
		resp, err := decodeResponse(plain)
		if err != nil {
			c.fail(err)
			return
		}
		if p := c.takePending(resp.id); p != nil {
			p.resp <- resp
		}
	}
}

// takePending removes and returns the call waiting for id, if it still
// is. Whoever takes a call owes it exactly one send on (or the close of)
// its channel, which has room for one.
func (c *Client) takePending(id int64) *pendingCall {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.pending[id]
	if p != nil {
		delete(c.pending, id)
	}
	return p
}

// fail poisons the client: every pending and future call observes err.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	stale := c.pending
	c.pending = make(map[int64]*pendingCall)
	c.mu.Unlock()
	for _, p := range stale {
		close(p.resp)
	}
}

// pendingCall is the rendezvous of one request in flight: the channel
// its response arrives on and the timer that gives up on it. Both are
// reused from call to call.
type pendingCall struct {
	c     *Client
	id    int64
	resp  chan response
	timer *time.Timer // runs expire; stopped while the call is idle
}

var pendingCalls = sync.Pool{New: func() any {
	p := &pendingCall{resp: make(chan response, 1)}
	p.timer = time.AfterFunc(time.Hour, p.expire)
	p.timer.Stop()
	return p
}}

// expire answers the call locally with a deadline rejection, unless its
// response (or the connection's failure) got there first.
func (p *pendingCall) expire() {
	if p.c.takePending(p.id) == p {
		p.resp <- response{id: p.id, status: statusDeadline}
	}
}

// Close tears down the session. The server releases every object the
// session owns through its GC-release path.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	c.fail(ErrClosed)
	return err
}

// roundTrip issues one request and waits for its response or timeout.
func (c *Client) roundTrip(req request) (response, error) {
	req.id = c.seq.Add(1)
	if req.budget <= 0 {
		req.budget = requestTimeout
	}
	p := pendingCalls.Get().(*pendingCall)
	p.c, p.id = c, req.id
	c.mu.Lock()
	if c.closed || c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		pendingCalls.Put(p)
		if err == nil {
			err = ErrClosed
		}
		return response{}, err
	}
	c.pending[req.id] = p
	c.mu.Unlock()

	c.writeMu.Lock()
	_, err := c.ch.Send(appendRequest(c.ch.Frame(), req))
	c.writeMu.Unlock()
	if err != nil {
		if c.takePending(req.id) == p {
			pendingCalls.Put(p)
		}
		// Otherwise the connection failed under the write and fail has
		// closed the channel: the call is not reusable.
		return response{}, err
	}

	// Wait a little past the propagated budget so a server-side
	// deadline rejection can arrive as a typed response.
	p.timer.Reset(req.budget + 2*time.Second)
	resp, ok := <-p.resp
	if !ok {
		p.timer.Stop()
		c.mu.Lock()
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return response{}, err
	}
	// A timer that could not be stopped has started expire, which may
	// still be looking at this call: leave it to the collector.
	if p.timer.Stop() {
		pendingCalls.Put(p)
	}
	return resp, nil
}

// call is the shared request path; timeout zero uses the default.
func (c *Client) call(req request, timeout time.Duration) (wire.Value, error) {
	req.budget = timeout
	resp, err := c.roundTrip(req)
	if err != nil {
		return wire.Value{}, err
	}
	if err := resp.err(); err != nil {
		return wire.Value{}, err
	}
	return resp.result, nil
}

// New instantiates a served class and returns the session-scoped handle.
func (c *Client) New(class string, args ...wire.Value) (Handle, error) {
	v, err := c.call(request{op: opNew, class: class, args: args}, 0)
	return returnedHandle(opNew, v, err)
}

// returnedHandle reads the handle a new or bind request returned.
func returnedHandle(op string, v wire.Value, err error) (Handle, error) {
	if err != nil {
		return Handle{}, err
	}
	h, ok := AsHandle(v)
	if !ok {
		return Handle{}, fmt.Errorf("%w: %s returned %v", ErrBadRequest, op, v.Kind())
	}
	return h, nil
}

// Call invokes a method on a session-owned object. Result refs come
// back as handles (extract with AsHandle).
func (c *Client) Call(h Handle, method string, args ...wire.Value) (wire.Value, error) {
	return c.call(request{op: opCall, handle: h.ID, method: method, args: args}, 0)
}

// CallTimeout is Call with an explicit deadline budget, propagated to
// the server.
func (c *Client) CallTimeout(timeout time.Duration, h Handle, method string, args ...wire.Value) (wire.Value, error) {
	return c.call(request{op: opCall, handle: h.ID, method: method, args: args}, timeout)
}

// CallCtx is CallTimeout carrying the caller's trace context: the
// gateway continues sc's trace across the session frame, so a span
// started client-side (the fabric router's route span) and the server's
// serve/exec spans share one trace ID. A zero sc is exactly CallTimeout.
func (c *Client) CallCtx(sc telemetry.SpanContext, timeout time.Duration, h Handle, method string, args ...wire.Value) (wire.Value, error) {
	return c.call(request{op: opCall, trace: sc, handle: h.ID, method: method, args: args}, timeout)
}

// Bind resolves a server-exported name (Server.Export) to a
// session-scoped handle. This is how a client reaches well-known
// objects it did not create — in particular after the gateway recovered
// from an enclave crash, when every pre-crash handle is gone and the
// recovered objects are reachable only by their exported names.
func (c *Client) Bind(name string) (Handle, error) {
	v, err := c.call(request{op: opBind, class: name}, 0)
	return returnedHandle(opBind, v, err)
}

// Release drops a handle; the server unpins the object so the next GC
// sweep reclaims it.
func (c *Client) Release(h Handle) error {
	_, err := c.call(request{op: opRelease, handle: h.ID}, 0)
	return err
}

// Ping round-trips an empty request through admission control.
func (c *Client) Ping() error {
	_, err := c.call(request{op: opPing}, 0)
	return err
}
