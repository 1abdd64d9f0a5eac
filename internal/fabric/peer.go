package fabric

// peer.go implements attested enclave-to-enclave channels: the serve
// handshake (X25519 key exchange quoted by an SGX enclave) applied
// symmetrically. Where a serve session authenticates only the server —
// the client is an untrusted remote party — a peer channel requires
// quotes from BOTH ends, each bound to the same key-exchange transcript,
// so two enclaves of the fabric mutually attest before any replication
// payload or cross-shard handle crosses the wire.
//
// Handshake (I = initiator, R = responder):
//
//	I→R  hello   (I's X25519 public key, nonce, I's origin)   plaintext
//	R→I  attest  (R's X25519 public key, quote over the
//	              transcript hash of both keys, the nonce and
//	              both origins)                                plaintext
//	I→R  prove   (I's quote over a domain-separated digest
//	              of the same transcript)                      sealed
//	R→I  ready                                                 sealed
//
// Both origins are folded into the transcript, so each quote attests
// not just the channel keys but the shard identities the two ends
// claim — a channel cannot be spliced between shards after the fact.
// The initiator's report data is domain-separated from the responder's
// (peerProveLabel) so neither quote can be replayed as the other.
//
// After the handshake the channel carries length-prefixed AES-256-GCM
// frames with direction-tagged counter nonces (replay and reordering
// protection), exactly like a serve session, but with a larger frame
// budget: replication deltas ship whole checkpoints.

import (
	"bytes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"montsalvat/internal/persist"
	"montsalvat/internal/sgx"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
)

// Peer protocol identifiers.
const (
	peerMsgHello  = "msv/peer-hello/1"
	peerMsgAttest = "msv/peer-attest/1"
	peerMsgProve  = "msv/peer-prove/1"
	peerMsgReady  = "msv/peer-ready/1"

	// peerKxLabel salts the shared transcript hash (the responder's
	// report data); peerProveLabel domain-separates the initiator's
	// report data from it; peerKeyLabel salts channel-key derivation.
	peerKxLabel    = "msv/peer-kx/1"
	peerProveLabel = "msv/peer-prove/1-rd"
	peerKeyLabel   = "msv/peer-key/1"
)

// Peer operations and statuses.
const (
	peerOpHave = "have"
	peerOpShip = "ship"
	peerOpBind = "bind"
	peerOpCall = "call"

	peerStatusOK      = "ok"
	peerStatusError   = "error"
	peerStatusForeign = "foreign-handle"
)

// maxPeerFrame bounds one peer frame. Peer channels carry whole
// checkpoint files, so the budget is far larger than a serve request
// frame — but still bounded, because the pre-handshake bytes are
// adversarial.
const maxPeerFrame = 16 << 20

// Typed peer-channel errors.
var (
	// ErrPeerHandshake covers mutual-attestation failures: a quote that
	// does not verify, is not bound to this channel's transcript, or a
	// peer claiming an origin the channel was not configured for.
	ErrPeerHandshake = errors.New("fabric: peer handshake failed")
	// ErrPeerClosed reports use of a closed peer channel.
	ErrPeerClosed = errors.New("fabric: peer channel closed")
	// ErrPeerForeignHandle rejects a handle presented with the wrong
	// origin shard: the cross-shard namespace check refused to resolve
	// it.
	ErrPeerForeignHandle = errors.New("fabric: handle from foreign shard namespace")
	// ErrPeerRejected carries a peer-side execution failure.
	ErrPeerRejected = errors.New("fabric: peer rejected request")
)

// PeerIdentity is one end of a peer channel: the platform that issues
// and verifies quotes, the local enclave being attested, and the shard
// origin this end speaks for.
type PeerIdentity struct {
	Platform *sgx.Platform
	Enclave  *sgx.Enclave
	Origin   string
}

// PeerHandle names an object another shard exported over a peer
// channel. Origin pins the handle to the shard namespace that issued
// it: presenting the handle anywhere else fails the LookupFrom check.
type PeerHandle struct {
	Origin string
	Class  string
	ID     int64
}

// ---- frame I/O and channel crypto ------------------------------------

func writePeerFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxPeerFrame {
		return fmt.Errorf("fabric: peer frame of %d bytes exceeds limit", len(payload))
	}
	// Header and payload go out in one Write: one syscall per frame.
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	copy(buf[4:], payload)
	_, err := w.Write(buf)
	return err
}

func readPeerFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxPeerFrame {
		return nil, fmt.Errorf("fabric: peer frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// peerCipher seals post-handshake peer frames; the same
// direction-tagged counter-nonce scheme as a serve session (initiator
// frames dir 1, responder frames dir 2).
type peerCipher struct {
	aead    cipher.AEAD
	sendDir byte
	recvDir byte
	sendCtr uint64
	recvCtr uint64
	// Nonce scratch of the one sender and the one receiver (the AEAD is
	// called through an interface; a stack nonce would escape per frame).
	sendNonce [12]byte
	recvNonce [12]byte
}

const (
	dirInitiator byte = 1
	dirResponder byte = 2
)

func newPeerCipher(key [32]byte, initiator bool) (*peerCipher, error) {
	aead, err := sgx.NewChannelAEAD(key)
	if err != nil {
		return nil, err
	}
	c := &peerCipher{aead: aead, sendDir: dirResponder, recvDir: dirInitiator}
	if initiator {
		c.sendDir, c.recvDir = dirInitiator, dirResponder
	}
	return c, nil
}

// peerFrameHeader is the room a peer frame leaves for its length prefix.
const peerFrameHeader = 4

// sealFrame turns frame — peerFrameHeader spare bytes, then a plaintext
// payload — into the wire frame: the payload is sealed where it lies,
// the tag appended and the length filled in.
func (c *peerCipher) sealFrame(frame []byte) ([]byte, error) {
	frame = c.aead.Seal(frame[:peerFrameHeader], c.nextSendNonce(), frame[peerFrameHeader:], nil)
	if len(frame)-peerFrameHeader > maxPeerFrame {
		return nil, fmt.Errorf("fabric: peer frame of %d bytes exceeds limit", len(frame)-peerFrameHeader)
	}
	binary.BigEndian.PutUint32(frame[:peerFrameHeader], uint32(len(frame)-peerFrameHeader))
	return frame, nil
}

// nextSendNonce returns the nonce of the next outbound frame and
// advances the send counter.
func (c *peerCipher) nextSendNonce() []byte {
	c.sendNonce[0] = c.sendDir
	binary.BigEndian.PutUint64(c.sendNonce[4:], c.sendCtr)
	c.sendCtr++
	return c.sendNonce[:]
}

// seal encrypts one handshake message into a payload of its own.
func (c *peerCipher) seal(plain []byte) []byte {
	return c.aead.Seal(nil, c.nextSendNonce(), plain, nil)
}

// open decrypts the next inbound frame payload in order, in place.
func (c *peerCipher) open(sealed []byte) ([]byte, error) {
	c.recvNonce[0] = c.recvDir
	binary.BigEndian.PutUint64(c.recvNonce[4:], c.recvCtr)
	plain, err := c.aead.Open(sealed[:0], c.recvNonce[:], sealed, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: frame auth: %v", ErrPeerHandshake, err)
	}
	c.recvCtr++
	return plain, nil
}

// peerTranscript binds both key-exchange keys, the nonce, and both
// claimed origins. Used verbatim as the responder's quote report data.
func peerTranscript(initPub, respPub, nonce []byte, initOrigin, respOrigin string) []byte {
	h := sha256.New()
	h.Write([]byte(peerKxLabel))
	h.Write(initPub)
	h.Write(respPub)
	h.Write(nonce)
	h.Write([]byte(initOrigin))
	h.Write([]byte{0})
	h.Write([]byte(respOrigin))
	return h.Sum(nil)
}

// peerProofData is the initiator's report data: the transcript under a
// distinct label, so the two quotes of one handshake are never
// interchangeable.
func peerProofData(transcript []byte) []byte {
	h := sha256.New()
	h.Write([]byte(peerProveLabel))
	h.Write(transcript)
	return h.Sum(nil)
}

func peerKey(shared, transcript []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte(peerKeyLabel))
	h.Write(shared)
	h.Write(transcript)
	var key [32]byte
	copy(key[:], h.Sum(nil))
	return key
}

// ---- handshake messages ----------------------------------------------

func encodeQuoteFields(q sgx.Quote) []wire.Value {
	return []wire.Value{
		wire.Bytes(q.Measurement[:]),
		wire.Bytes(q.MRSigner[:]),
		wire.Bytes(q.ReportData),
		wire.Bytes(q.MAC[:]),
	}
}

func decodeQuoteFields(vs []wire.Value) (sgx.Quote, error) {
	var q sgx.Quote
	if len(vs) != 4 {
		return q, fmt.Errorf("%w: malformed quote", ErrPeerHandshake)
	}
	meas, _ := vs[0].AsBytes()
	signer, _ := vs[1].AsBytes()
	report, _ := vs[2].AsBytes()
	mac, _ := vs[3].AsBytes()
	if len(meas) != 32 || len(signer) != 32 || len(mac) != 32 {
		return q, fmt.Errorf("%w: malformed quote", ErrPeerHandshake)
	}
	copy(q.Measurement[:], meas)
	copy(q.MRSigner[:], signer)
	copy(q.MAC[:], mac)
	q.ReportData = report
	return q, nil
}

// ---- PeerConn --------------------------------------------------------

// PeerConn is one attested channel between two enclaves. The initiator
// side drives request/response exchanges (Have/Ship/BindPeer/CallPeer);
// the responder side is driven by a PeerHost's serve loop. Exchanges
// are serialised — one request in flight per channel — which is all the
// replication shipper needs and keeps the cipher counters trivially
// ordered.
type PeerConn struct {
	conn         net.Conn
	localOrigin  string
	remoteOrigin string
	closed       atomic.Bool

	mu   sync.Mutex
	ciph *peerCipher
	// sendBuf is the reusable outbound frame, owned by the channel's
	// single sender (a holder of mu, or the host serve loop).
	sendBuf []byte
}

// LocalOrigin returns the shard identity this end presented.
func (p *PeerConn) LocalOrigin() string { return p.localOrigin }

// RemoteOrigin returns the shard identity the attested peer presented.
func (p *PeerConn) RemoteOrigin() string { return p.remoteOrigin }

// Close tears the channel down. Safe to call concurrently with a
// blocked send/recv (the underlying conn close unblocks it).
func (p *PeerConn) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	return p.conn.Close()
}

// frame returns the empty outbound frame: room for the length prefix,
// behind which the sender encodes its plaintext before sendFrame. The
// caller must be the channel's single sender.
func (p *PeerConn) frame() []byte {
	if cap(p.sendBuf) < peerFrameHeader || cap(p.sendBuf) > keepPeerFrame {
		p.sendBuf = make([]byte, peerFrameHeader, 512)
	}
	return p.sendBuf[:peerFrameHeader]
}

// keepPeerFrame is the largest outbound frame buffer a channel reuses;
// one shipped checkpoint does not pin 16 MiB to it.
const keepPeerFrame = 256 << 10

// sendFrame seals a frame built on p.frame() where it lies and writes
// it in one Write.
func (p *PeerConn) sendFrame(frame []byte) error {
	if p.closed.Load() {
		return ErrPeerClosed
	}
	frame, err := p.ciph.sealFrame(frame)
	if err != nil {
		return err
	}
	p.sendBuf = frame
	_, err = p.conn.Write(frame)
	return err
}

// send seals and writes one frame. The caller must be the channel's
// single sender (roundTrip's lock, or the host serve loop).
func (p *PeerConn) send(plain []byte) error {
	return p.sendFrame(append(p.frame(), plain...))
}

// recv reads and opens one frame. The caller must be the channel's
// single reader.
func (p *PeerConn) recv() ([]byte, error) {
	if p.closed.Load() {
		return nil, ErrPeerClosed
	}
	sealed, err := readPeerFrame(p.conn)
	if err != nil {
		return nil, err
	}
	return p.ciph.open(sealed)
}

// roundTrip performs one serialised request/response exchange.
func (p *PeerConn) roundTrip(req []byte) ([]wire.Value, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exchange(append(p.frame(), req...))
}

// exchange sends a request frame built on p.frame() and reads its
// response. Caller holds p.mu.
func (p *PeerConn) exchange(frame []byte) ([]wire.Value, error) {
	if err := p.sendFrame(frame); err != nil {
		return nil, err
	}
	resp, err := p.recv()
	if err != nil {
		return nil, err
	}
	vs, err := wire.UnmarshalList(resp)
	if err != nil || len(vs) < 1 {
		return nil, fmt.Errorf("%w: malformed peer response", ErrPeerRejected)
	}
	status, _ := vs[0].AsStr()
	switch status {
	case peerStatusOK:
		return vs[1:], nil
	case peerStatusForeign:
		msg := ""
		if len(vs) > 1 {
			msg, _ = vs[1].AsStr()
		}
		return nil, fmt.Errorf("%w: %s", ErrPeerForeignHandle, msg)
	default:
		msg := ""
		if len(vs) > 1 {
			msg, _ = vs[1].AsStr()
		}
		return nil, fmt.Errorf("%w: %s", ErrPeerRejected, msg)
	}
}

// DialPeer opens and mutually attests a channel to the peer at addr.
// expect is the measurement the remote enclave must prove;
// remoteOrigin is the shard identity it must claim (and quote).
func DialPeer(addr string, local PeerIdentity, remoteOrigin string, expect [32]byte, timeout time.Duration) (*PeerConn, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	_ = conn.SetDeadline(deadline)

	fail := func(format string, args ...any) (*PeerConn, error) {
		conn.Close()
		return nil, fmt.Errorf(format, args...)
	}

	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return fail("%w: keygen: %v", ErrPeerHandshake, err)
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return fail("%w: nonce: %v", ErrPeerHandshake, err)
	}
	initPub := priv.PublicKey().Bytes()
	hello := wire.MarshalList([]wire.Value{
		wire.Str(peerMsgHello), wire.Bytes(initPub), wire.Bytes(nonce), wire.Str(local.Origin),
	})
	if err := writePeerFrame(conn, hello); err != nil {
		return fail("%w: hello: %v", ErrPeerHandshake, err)
	}

	buf, err := readPeerFrame(conn)
	if err != nil {
		return fail("%w: attest: %v", ErrPeerHandshake, err)
	}
	vs, err := wire.UnmarshalList(buf)
	if err != nil || len(vs) != 6 {
		return fail("%w: malformed attest", ErrPeerHandshake)
	}
	if magic, _ := vs[0].AsStr(); magic != peerMsgAttest {
		return fail("%w: unexpected message %q", ErrPeerHandshake, magic)
	}
	respPub, _ := vs[1].AsBytes()
	quote, err := decodeQuoteFields(vs[2:])
	if err != nil {
		return fail("%v", err)
	}
	transcript := peerTranscript(initPub, respPub, nonce, local.Origin, remoteOrigin)
	if err := local.Platform.Verify(quote, expect); err != nil {
		return fail("%w: responder quote: %v", ErrPeerHandshake, err)
	}
	if !bytes.Equal(quote.ReportData, transcript) {
		return fail("%w: responder quote not bound to this channel", ErrPeerHandshake)
	}

	peerPub, err := ecdh.X25519().NewPublicKey(respPub)
	if err != nil {
		return fail("%w: responder key: %v", ErrPeerHandshake, err)
	}
	shared, err := priv.ECDH(peerPub)
	if err != nil {
		return fail("%w: ecdh: %v", ErrPeerHandshake, err)
	}
	ciph, err := newPeerCipher(peerKey(shared, transcript), true)
	if err != nil {
		return fail("%w: cipher: %v", ErrPeerHandshake, err)
	}

	proof, err := local.Platform.Quote(local.Enclave, peerProofData(transcript))
	if err != nil {
		return fail("%w: local quote: %v", ErrPeerHandshake, err)
	}
	prove := wire.MarshalList(append([]wire.Value{wire.Str(peerMsgProve)}, encodeQuoteFields(proof)...))
	if err := writePeerFrame(conn, ciph.seal(prove)); err != nil {
		return fail("%w: prove: %v", ErrPeerHandshake, err)
	}

	sealed, err := readPeerFrame(conn)
	if err != nil {
		return fail("%w: ready: %v", ErrPeerHandshake, err)
	}
	plain, err := ciph.open(sealed)
	if err != nil {
		return fail("%v", err)
	}
	rv, err := wire.UnmarshalList(plain)
	if err != nil || len(rv) != 1 {
		return fail("%w: malformed ready", ErrPeerHandshake)
	}
	if magic, _ := rv[0].AsStr(); magic != peerMsgReady {
		return fail("%w: unexpected message %q", ErrPeerHandshake, magic)
	}

	_ = conn.SetDeadline(time.Time{})
	return &PeerConn{conn: conn, ciph: ciph, localOrigin: local.Origin, remoteOrigin: remoteOrigin}, nil
}

// AcceptPeer runs the responder side of the handshake over an accepted
// connection. peers maps each shard origin this host accepts channels
// from to the measurement that origin's enclave must prove; an
// initiator claiming any other origin is refused before the responder
// quotes anything. The claimed origin is folded into the attested
// transcript, so the initiator's own quote certifies the claim.
func AcceptPeer(conn net.Conn, local PeerIdentity, peers map[string][32]byte, timeout time.Duration) (*PeerConn, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	_ = conn.SetDeadline(time.Now().Add(timeout))

	buf, err := readPeerFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("%w: hello: %v", ErrPeerHandshake, err)
	}
	vs, err := wire.UnmarshalList(buf)
	if err != nil || len(vs) != 4 {
		return nil, fmt.Errorf("%w: malformed hello", ErrPeerHandshake)
	}
	if magic, _ := vs[0].AsStr(); magic != peerMsgHello {
		return nil, fmt.Errorf("%w: unexpected message %q", ErrPeerHandshake, magic)
	}
	initPub, _ := vs[1].AsBytes()
	nonce, _ := vs[2].AsBytes()
	claimed, _ := vs[3].AsStr()
	if len(initPub) == 0 || len(nonce) == 0 {
		return nil, fmt.Errorf("%w: malformed hello", ErrPeerHandshake)
	}
	expect, ok := peers[claimed]
	if !ok {
		return nil, fmt.Errorf("%w: peer claims unknown origin %q", ErrPeerHandshake, claimed)
	}

	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("%w: keygen: %v", ErrPeerHandshake, err)
	}
	respPub := priv.PublicKey().Bytes()
	transcript := peerTranscript(initPub, respPub, nonce, claimed, local.Origin)
	quote, err := local.Platform.Quote(local.Enclave, transcript)
	if err != nil {
		return nil, fmt.Errorf("%w: local quote: %v", ErrPeerHandshake, err)
	}
	attest := wire.MarshalList(append([]wire.Value{wire.Str(peerMsgAttest), wire.Bytes(respPub)}, encodeQuoteFields(quote)...))
	if err := writePeerFrame(conn, attest); err != nil {
		return nil, fmt.Errorf("%w: attest: %v", ErrPeerHandshake, err)
	}

	peerPub, err := ecdh.X25519().NewPublicKey(initPub)
	if err != nil {
		return nil, fmt.Errorf("%w: initiator key: %v", ErrPeerHandshake, err)
	}
	shared, err := priv.ECDH(peerPub)
	if err != nil {
		return nil, fmt.Errorf("%w: ecdh: %v", ErrPeerHandshake, err)
	}
	ciph, err := newPeerCipher(peerKey(shared, transcript), false)
	if err != nil {
		return nil, fmt.Errorf("%w: cipher: %v", ErrPeerHandshake, err)
	}

	sealed, err := readPeerFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("%w: prove: %v", ErrPeerHandshake, err)
	}
	plain, err := ciph.open(sealed)
	if err != nil {
		return nil, err
	}
	pv, err := wire.UnmarshalList(plain)
	if err != nil || len(pv) != 5 {
		return nil, fmt.Errorf("%w: malformed prove", ErrPeerHandshake)
	}
	if magic, _ := pv[0].AsStr(); magic != peerMsgProve {
		return nil, fmt.Errorf("%w: unexpected message %q", ErrPeerHandshake, magic)
	}
	proof, err := decodeQuoteFields(pv[1:])
	if err != nil {
		return nil, err
	}
	if err := local.Platform.Verify(proof, expect); err != nil {
		return nil, fmt.Errorf("%w: initiator quote: %v", ErrPeerHandshake, err)
	}
	if !bytes.Equal(proof.ReportData, peerProofData(transcript)) {
		return nil, fmt.Errorf("%w: initiator quote not bound to this channel", ErrPeerHandshake)
	}

	ready := wire.MarshalList([]wire.Value{wire.Str(peerMsgReady)})
	if err := writePeerFrame(conn, ciph.seal(ready)); err != nil {
		return nil, fmt.Errorf("%w: ready: %v", ErrPeerHandshake, err)
	}

	_ = conn.SetDeadline(time.Time{})
	return &PeerConn{conn: conn, ciph: ciph, localOrigin: local.Origin, remoteOrigin: claimed}, nil
}

// ---- trace-context wire helpers --------------------------------------

// traceVals renders a span context as the two trailing request fields
// every traced peer operation carries. A zero context encodes as two
// zeros — "no trace" — so untraced channels pay two varint zeros, not a
// separate wire format.
func traceVals(sc telemetry.SpanContext) []wire.Value {
	return []wire.Value{wire.Int(int64(sc.TraceID)), wire.Int(int64(sc.SpanID))}
}

// traceFromVals decodes the two trailing trace fields (missing or
// malformed fields decode as the zero context, keeping the host
// tolerant of older encoders).
func traceFromVals(vs []wire.Value) telemetry.SpanContext {
	if len(vs) < 2 {
		return telemetry.SpanContext{}
	}
	tid, _ := vs[0].AsInt()
	sid, _ := vs[1].AsInt()
	return telemetry.SpanContext{TraceID: uint64(tid), SpanID: uint64(sid)}
}

// ---- initiator-side operations ---------------------------------------

// Have asks the peer for its durable-root inventory (file → size), the
// basis for an incremental ReplicaDelta.
func (p *PeerConn) Have() (map[string]int64, error) {
	res, err := p.roundTrip(wire.MarshalList([]wire.Value{wire.Str(peerOpHave)}))
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

// Ship delivers one replication delta; the peer applies it to its
// durable root and acknowledges with the stamp and LSN it now holds.
func (p *PeerConn) Ship(d persist.Delta) (stamp, lastLSN uint64, err error) {
	return p.ShipCtx(telemetry.SpanContext{}, d)
}

// ShipCtx is Ship carrying the shipping request's trace context, so the
// replica's apply span joins the trace that triggered the ship (the
// client put whose ack is waiting on this delta).
func (p *PeerConn) ShipCtx(sc telemetry.SpanContext, d persist.Delta) (stamp, lastLSN uint64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	res, err := p.exchange(appendShipRequest(p.frame(), sc, d))
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

// BindPeer resolves a named export of the peer shard into a handle in
// the peer's origin-tagged namespace.
func (p *PeerConn) BindPeer(name string) (PeerHandle, error) {
	res, err := p.roundTrip(wire.MarshalList([]wire.Value{wire.Str(peerOpBind), wire.Str(name)}))
	if err != nil {
		return PeerHandle{}, err
	}
	if len(res) != 1 {
		return PeerHandle{}, fmt.Errorf("%w: bind arity", ErrPeerRejected)
	}
	class, id, ok := res[0].AsRef()
	if !ok {
		return PeerHandle{}, fmt.Errorf("%w: bind payload", ErrPeerRejected)
	}
	return PeerHandle{Origin: p.remoteOrigin, Class: class, ID: id}, nil
}

// CallPeer invokes a method on a peer handle. The handle's origin
// travels with the request: the peer resolves it with LookupFrom, so a
// handle issued by a different shard's namespace is refused with
// ErrPeerForeignHandle rather than resolving to an unrelated object.
// Ref results come back as handles in the peer's namespace.
func (p *PeerConn) CallPeer(h PeerHandle, method string, args ...wire.Value) (wire.Value, error) {
	return p.CallPeerCtx(telemetry.SpanContext{}, h, method, args...)
}

// CallPeerCtx is CallPeer carrying the caller's trace context: the host
// shard continues sc's trace across the peer channel, so a cross-shard
// call chain shares one trace ID end to end.
func (p *PeerConn) CallPeerCtx(sc telemetry.SpanContext, h PeerHandle, method string, args ...wire.Value) (wire.Value, error) {
	req := wire.MarshalList(append([]wire.Value{
		wire.Str(peerOpCall), wire.Str(h.Origin), wire.Int(h.ID), wire.Str(method), wire.List(args...),
	}, traceVals(sc)...))
	res, err := p.roundTrip(req)
	if err != nil {
		return wire.Value{}, err
	}
	if len(res) != 1 {
		return wire.Value{}, fmt.Errorf("%w: call arity", ErrPeerRejected)
	}
	return res[0], nil
}
