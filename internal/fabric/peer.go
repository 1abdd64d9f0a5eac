package fabric

// peer.go is the fabric's plane of the attested channel
// (internal/channel): an enclave-to-enclave link on which BOTH ends
// prove themselves. Where a gateway session authenticates only the
// server — the client is an untrusted remote party — a peer responder
// demands, for the shard origin the initiator claims, a quote carrying
// that origin's measurement over the same key-exchange transcript, so
// two enclaves of the fabric mutually attest before any replication
// payload crosses the wire. Both origins are folded into the
// transcript: a channel cannot be spliced between shards after the
// fact.
//
// The established channel carries the same sealed frames as a session,
// with a larger budget: replication deltas ship whole checkpoints.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"montsalvat/internal/channel"
	"montsalvat/internal/persist"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
)

// peerPlane is the fabric's plane of the attested channel. Peer links
// carry whole checkpoint files, so the frame budget is far larger than
// a gateway's — once both ends are attested; the handshake frames are
// capped by the channel.
var peerPlane = channel.Plane{Purpose: channel.Peer, MaxFrame: 16 << 20}

// statusUnknownOrigin refuses an initiator claiming an origin the host
// has no measurement for.
const statusUnknownOrigin = "unknown-origin"

// Peer operations and statuses. A peer channel carries replication
// only: the primary asks a standby what it holds and ships it deltas.
const (
	peerOpHave = "have"
	peerOpShip = "ship"

	peerStatusOK    = "ok"
	peerStatusError = "error"
)

// Typed peer-channel errors.
var (
	// ErrPeerClosed reports use of a closed peer channel.
	ErrPeerClosed = errors.New("fabric: peer channel closed")
	// ErrPeerRejected carries a peer-side execution failure.
	ErrPeerRejected = errors.New("fabric: peer rejected request")
)

// PeerIdentity is one end of a peer channel: the platform that issues
// and verifies quotes, the local enclave being attested, and the shard
// origin this end speaks for.
type PeerIdentity = channel.Identity

// ---- PeerConn --------------------------------------------------------

// PeerConn is one attested channel between two enclaves. The initiator
// side drives request/response exchanges (Have/ShipCtx);
// the responder side is driven by a PeerHost's serve loop. Exchanges
// are serialised — one request in flight per channel — which is all the
// replication shipper needs and keeps the cipher counters trivially
// ordered.
type PeerConn struct {
	conn   net.Conn
	ch     *channel.Conn
	closed atomic.Bool

	mu sync.Mutex // one exchange at a time
}

// RemoteOrigin returns the shard identity the attested peer presented.
func (p *PeerConn) RemoteOrigin() string { return p.ch.RemoteOrigin() }

// Close tears the channel down. Safe to call concurrently with a
// blocked exchange (the underlying conn close unblocks it).
func (p *PeerConn) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	return p.conn.Close()
}

// exchange sends a request frame built on p.ch.Frame() and reads its
// response: the status, then the results (every operation has one) or
// the failure's message. Caller holds p.mu.
func (p *PeerConn) exchange(frame []byte) ([]wire.Value, error) {
	if _, err := p.ch.Send(frame); err != nil {
		return nil, err
	}
	resp, err := p.ch.Recv()
	if err != nil {
		return nil, err
	}
	vs, err := wire.UnmarshalList(resp)
	if err != nil || len(vs) < 2 {
		return nil, fmt.Errorf("%w: malformed peer response", ErrPeerRejected)
	}
	status, _ := vs[0].AsStr()
	if status == peerStatusOK {
		return vs[1:], nil
	}
	msg, _ := vs[1].AsStr()
	return nil, fmt.Errorf("%w: %s", ErrPeerRejected, msg)
}

// DialPeer opens and mutually attests a channel to the peer at addr.
// expect is the measurement the remote enclave must prove;
// remoteOrigin is the shard identity it must claim (and quote).
func DialPeer(addr string, local PeerIdentity, remoteOrigin string, expect [32]byte) (*PeerConn, error) {
	conn, err := net.DialTimeout("tcp", addr, channel.HandshakeTimeout)
	if err != nil {
		return nil, err
	}
	ch, err := channel.Initiate(conn, peerPlane, local, remoteOrigin, expect)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &PeerConn{conn: conn, ch: ch}, nil
}

// AcceptPeer runs the responder side of the handshake over an accepted
// connection. peers maps each shard origin this host accepts channels
// from to the measurement that origin's enclave must prove; an
// initiator claiming any other origin is refused before the responder
// quotes anything. The claimed origin is folded into the attested
// transcript, so the initiator's own quote certifies the claim.
func AcceptPeer(conn net.Conn, local PeerIdentity, peers map[string][32]byte) (*PeerConn, error) {
	ch, err := channel.Accept(conn, peerPlane, local, func(origin string) (*[32]byte, error) {
		expect, ok := peers[origin]
		if !ok {
			return nil, fmt.Errorf("peer claims unknown origin %q: %w", origin, &channel.RejectError{Status: statusUnknownOrigin})
		}
		return &expect, nil
	})
	if err != nil {
		return nil, err
	}
	return &PeerConn{conn: conn, ch: ch}, nil
}

// ---- initiator-side operations ---------------------------------------

// Have asks the peer for its durable-root inventory (file → size), the
// basis for an incremental ReplicaDelta.
func (p *PeerConn) Have() (map[string]int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	res, err := p.exchange(wire.AppendValues(p.ch.Frame(), []wire.Value{wire.Str(peerOpHave)}))
	if err != nil {
		return nil, err
	}
	if len(res) != 1 {
		return nil, fmt.Errorf("%w: have arity", ErrPeerRejected)
	}
	entries, ok := res[0].AsList()
	if !ok {
		return nil, fmt.Errorf("%w: have payload", ErrPeerRejected)
	}
	have := make(map[string]int64, len(entries))
	for _, e := range entries {
		pair, ok := e.AsList()
		if !ok || len(pair) != 2 {
			return nil, fmt.Errorf("%w: have entry", ErrPeerRejected)
		}
		name, _ := pair[0].AsStr()
		size, _ := pair[1].AsInt()
		have[name] = size
	}
	return have, nil
}

// ShipCtx delivers one replication delta; the peer applies it to its
// durable root and acknowledges with the stamp and LSN it now holds. sc
// is the shipping request's trace context, so the replica's apply span
// joins the trace that triggered the ship (the client put whose ack is
// waiting on this delta).
func (p *PeerConn) ShipCtx(sc telemetry.SpanContext, d persist.Delta) (stamp, lastLSN uint64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	res, err := p.exchange(appendShipRequest(p.ch.Frame(), sc, d))
	if err != nil {
		return 0, 0, err
	}
	if len(res) != 2 {
		return 0, 0, fmt.Errorf("%w: ship arity", ErrPeerRejected)
	}
	s, _ := res[0].AsInt()
	l, _ := res[1].AsInt()
	return uint64(s), uint64(l), nil
}

// appendShipRequest encodes a ship request — [op, delta blob, trace id,
// span id], as wire.MarshalList would spell it — onto dst, with the blob
// encoded where the frame will be sealed: a shipped byte is copied once,
// from the delta into the frame.
func appendShipRequest(dst []byte, sc telemetry.SpanContext, d persist.Delta) []byte {
	dst = wire.AppendListHeader(dst, 4)
	dst = wire.Append(dst, wire.Str(peerOpShip))
	dst = wire.AppendBytesHeader(dst, persist.DeltaSize(d))
	dst = persist.AppendDelta(dst, d)
	dst = wire.Append(dst, wire.Int(int64(sc.TraceID)))
	return wire.Append(dst, wire.Int(int64(sc.SpanID)))
}
