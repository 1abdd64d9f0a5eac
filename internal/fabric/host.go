package fabric

// host.go is the responder side of a peer channel: an accept loop that
// mutually attests each inbound connection (AcceptPeer) against the one
// origin allowed to open channels here, then serves replication — the
// durable-root inventory and the application of shipped deltas. Only a
// standby runs a host; a primary dials its standbys and accepts none.

import (
	"fmt"
	"net"
	"sort"
	"sync"

	"montsalvat/internal/persist"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
)

// PeerHost serves peer-channel operations for one standby.
type PeerHost struct {
	// Identity is this end of every accepted channel (the host's
	// platform, enclave, and origin).
	Identity PeerIdentity
	// Peers maps each origin allowed to open channels here to the
	// measurement that origin's enclave must prove.
	Peers map[string][32]byte

	// Have reports the host's durable-root inventory; nil rejects
	// replication inventory requests.
	Have func() (map[string]int64, error)
	// Apply applies one replication delta and returns the (stamp, LSN)
	// position the host now holds; nil rejects shipments.
	Apply func(persist.Delta) (stamp, lastLSN uint64, err error)

	// Logf receives diagnostics; OnHandshake fires per attested channel
	// (telemetry hook).
	Logf        func(format string, args ...any)
	OnHandshake func()

	// Telemetry, when set, continues propagated trace contexts across
	// the channel (ship-apply spans) and journals ship events. Nil
	// disables both at the cost of one branch.
	Telemetry *telemetry.Telemetry

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*PeerConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

func (h *PeerHost) logf(format string, args ...any) {
	if h.Logf != nil {
		h.Logf(format, args...)
	}
}

// Serve accepts and serves peer channels on ln until Close.
func (h *PeerHost) Serve(ln net.Listener) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		ln.Close()
		return ErrPeerClosed
	}
	h.ln = ln
	if h.conns == nil {
		h.conns = make(map[*PeerConn]struct{})
	}
	h.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			h.mu.Lock()
			closed := h.closed
			h.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		h.wg.Add(1)
		go h.serveConn(conn)
	}
}

// Close stops the accept loop, tears down live channels, and waits for
// their serve goroutines.
func (h *PeerHost) Close() {
	h.mu.Lock()
	h.closed = true
	ln := h.ln
	conns := make([]*PeerConn, 0, len(h.conns))
	for pc := range h.conns {
		conns = append(conns, pc)
	}
	h.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, pc := range conns {
		pc.Close()
	}
	h.wg.Wait()
}

func (h *PeerHost) serveConn(conn net.Conn) {
	defer h.wg.Done()
	pc, err := AcceptPeer(conn, h.Identity, h.Peers)
	if err != nil {
		h.logf("fabric: peer accept (%s): %v", h.Identity.Origin, err)
		conn.Close()
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		pc.Close()
		return
	}
	h.conns[pc] = struct{}{}
	h.mu.Unlock()
	if h.OnHandshake != nil {
		h.OnHandshake()
	}

	defer func() {
		pc.Close()
		h.mu.Lock()
		delete(h.conns, pc)
		h.mu.Unlock()
	}()

	for {
		req, err := pc.ch.Recv()
		if err != nil {
			return // teardown or peer hangup
		}
		if _, err := pc.ch.Send(wire.AppendValues(pc.ch.Frame(), h.dispatch(req))); err != nil {
			return
		}
	}
}

// peerOK and peerError build a response: the status, then
// the results or a message.
func peerOK(vals ...wire.Value) []wire.Value {
	return append([]wire.Value{wire.Str(peerStatusOK)}, vals...)
}

func peerError(format string, args ...any) []wire.Value {
	return []wire.Value{wire.Str(peerStatusError), wire.Str(fmt.Sprintf(format, args...))}
}

// dispatch decodes one request — a list of the operation and exactly
// that operation's fields — and serves it.
func (h *PeerHost) dispatch(req []byte) []wire.Value {
	vs, err := wire.UnmarshalList(req)
	if err != nil || len(vs) < 1 {
		return peerError("malformed peer request")
	}
	op, _ := vs[0].AsStr()
	switch op {
	case peerOpHave:
		return h.serveHave()
	case peerOpShip:
		return h.serveShip(vs[1:])
	default:
		return peerError("unknown peer op %q", op)
	}
}

func (h *PeerHost) serveHave() []wire.Value {
	if h.Have == nil {
		return peerError("replication not served here")
	}
	have, err := h.Have()
	if err != nil {
		return peerError("inventory: %v", err)
	}
	names := make([]string, 0, len(have))
	for name := range have {
		names = append(names, name)
	}
	sort.Strings(names)
	entries := make([]wire.Value, 0, len(names))
	for _, name := range names {
		entries = append(entries, wire.List(wire.Str(name), wire.Int(have[name])))
	}
	return peerOK(wire.List(entries...))
}

func (h *PeerHost) serveShip(args []wire.Value) []wire.Value {
	if h.Apply == nil {
		return peerError("replication not served here")
	}
	if len(args) != 3 {
		return peerError("ship arity")
	}
	blob, ok := args[0].AsBytes()
	if !ok {
		return peerError("ship payload")
	}
	tid, _ := args[1].AsInt()
	sid, _ := args[2].AsInt()
	sc := telemetry.SpanContext{TraceID: uint64(tid), SpanID: uint64(sid)}
	sp := h.Telemetry.Tracer().StartRemote(sc, "ship-apply")
	sp.SetSealedBytes(len(blob))
	d, err := persist.DecodeDelta(blob)
	if err != nil {
		sp.Finish(err)
		return peerError("decode delta: %v", err)
	}
	stamp, lsn, err := h.Apply(d)
	if err != nil {
		sp.Finish(err)
		return peerError("apply delta: %v", err)
	}
	h.Telemetry.Events().Emit(telemetry.EventShip, h.Identity.Origin, sc.TraceID,
		"applied %d bytes, now stamp %d lsn %d", len(blob), stamp, lsn)
	sp.Finish(nil)
	return peerOK(wire.Int(int64(stamp)), wire.Int(int64(lsn)))
}
