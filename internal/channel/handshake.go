package channel

// handshake.go is the one attested key exchange (I = initiator,
// R = responder):
//
//	I→R  hello   version, purpose, I's X25519 key, nonce, I's origin   plaintext
//	R→I  attest  R's X25519 key, R's quote over the transcript,
//	             whether I must prove itself                           plaintext
//	  or reject  a status (R refused before attesting)                 plaintext
//	I→R  prove   I's quote over a digest of the transcript, present
//	             exactly when R demanded it                            sealed
//	R→I  ready                                                         sealed
//
// The transcript digests the version, the purpose, the demand, both
// keys, the nonce and both origins. R's quote carries it as report data,
// so the quote attests this exchange — these keys, these claimed
// identities, this plane — and not a replayed or spliced one; the
// channel key is derived from the ECDH secret and the same transcript.
// A gateway session is the one-sided case (the client speaks for no
// enclave and the gateway demands nothing); a fabric peer link is the
// mutual case (R's admission demands the measurement of the origin I
// claims). I's report data is the transcript under a second label, so
// the two quotes of one handshake are never interchangeable.

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"montsalvat/internal/sgx"
	"montsalvat/internal/wire"
)

// Version is the protocol version a hello announces. It is the first
// thing a responder reads: a hello of another version is refused before
// the rest of it is parsed.
const Version byte = 1

// HandshakeTimeout bounds a whole handshake, and the TCP dial before it
// on the initiator's side.
const HandshakeTimeout = 10 * time.Second

// Purpose names the plane a channel serves. It travels in the hello and
// is folded into the transcript, so a quote issued for a client session
// never verifies inside a peer handshake.
type Purpose byte

const (
	Session Purpose = 1 // a client's session with a gateway
	Peer    Purpose = 2 // an enclave-to-enclave fabric link
)

// Plane is what the two callers differ in: the purpose tag and the
// sealed-frame budget of the established channel (a gateway request is
// small; a peer link ships whole checkpoints).
type Plane struct {
	Purpose  Purpose
	MaxFrame uint32
}

// Labels salting the three digests of a handshake.
const (
	kxLabel    = "msv/channel/kx"
	proveLabel = "msv/channel/prove"
	keyLabel   = "msv/channel/key"
)

// Reject statuses the channel itself answers a hello with; the
// responder's admission adds its own.
const (
	StatusVersion = "version"
	StatusPurpose = "purpose"
)

var (
	// ErrHandshake covers every handshake failure: a quote that does not
	// verify or is not bound to this exchange, a malformed or unexpected
	// message, a missing proof, a refusal.
	ErrHandshake = errors.New("channel: attestation handshake failed")
	// ErrVersion is the ErrHandshake of a hello announcing a protocol
	// version this end does not speak.
	ErrVersion = fmt.Errorf("%w: unsupported protocol version", ErrHandshake)
)

// RejectError is a responder's refusal before attesting, on either end
// of the handshake: what the responder's admission returned, and what
// the initiator reads back.
type RejectError struct{ Status string }

func (e *RejectError) Error() string { return "channel: handshake rejected: " + e.Status }

// Unwrap makes a refusal an ErrHandshake.
func (e *RejectError) Unwrap() error { return ErrHandshake }

// Attestor issues and verifies quotes: *sgx.Platform.
type Attestor interface {
	Quote(e *sgx.Enclave, reportData []byte) (sgx.Quote, error)
	Verify(q sgx.Quote, expected [32]byte) error
}

// Identity is one end of a handshake: the platform that issues and
// verifies quotes, the enclave this end speaks for (nil for a gateway
// client, which attests nothing) and the origin it claims.
type Identity struct {
	Platform Attestor
	Enclave  *sgx.Enclave
	Origin   string
}

// ---- messages ----------------------------------------------------------

type msgKind byte

const (
	kindHello msgKind = iota + 1
	kindAttest
	kindReject
	kindProve
	kindReady
)

// message is any handshake message; kind says which fields are its own.
// On the wire it is the kind byte — for a hello, then the version and
// purpose bytes — and a wire list of exactly the kind's fields.
type message struct {
	kind    msgKind
	purpose Purpose    // hello
	pub     []byte     // hello, attest: the sender's X25519 public key
	nonce   []byte     // hello
	origin  string     // hello
	quote   *sgx.Quote // attest; prove when demanded
	demand  bool       // attest: the initiator must prove itself
	status  string     // reject
}

func quoteValue(q *sgx.Quote) wire.Value {
	if q == nil {
		return wire.Null()
	}
	return wire.List(wire.Bytes(q.Measurement[:]), wire.Bytes(q.MRSigner[:]), wire.Bytes(q.ReportData), wire.Bytes(q.MAC[:]))
}

func quoteOf(v wire.Value) (*sgx.Quote, bool) {
	fs, _ := v.AsList()
	if len(fs) != 4 {
		return nil, false
	}
	meas, _ := fs[0].AsBytes()
	signer, _ := fs[1].AsBytes()
	report, ok := fs[2].AsBytes()
	mac, _ := fs[3].AsBytes()
	if !ok || len(meas) != 32 || len(signer) != 32 || len(mac) != 32 {
		return nil, false
	}
	q := &sgx.Quote{ReportData: report}
	copy(q.Measurement[:], meas)
	copy(q.MRSigner[:], signer)
	copy(q.MAC[:], mac)
	return q, true
}

func appendMessage(dst []byte, m message) []byte {
	dst = append(dst, byte(m.kind))
	var fields []wire.Value
	switch m.kind {
	case kindHello:
		dst = append(dst, Version, byte(m.purpose))
		fields = []wire.Value{wire.Bytes(m.pub), wire.Bytes(m.nonce), wire.Str(m.origin)}
	case kindAttest:
		fields = []wire.Value{wire.Bytes(m.pub), quoteValue(m.quote), wire.Bool(m.demand)}
	case kindReject:
		fields = []wire.Value{wire.Str(m.status)}
	case kindProve:
		fields = []wire.Value{quoteValue(m.quote)}
	}
	return wire.AppendValues(dst, fields)
}

func decodeMessage(buf []byte) (message, error) {
	bad := func() (message, error) { return message{}, fmt.Errorf("%w: malformed message", ErrHandshake) }
	if len(buf) == 0 {
		return bad()
	}
	m := message{kind: msgKind(buf[0])}
	body := buf[1:]
	if m.kind == kindHello {
		if len(body) < 2 {
			return bad()
		}
		if body[0] != Version {
			return message{}, fmt.Errorf("%w %d", ErrVersion, body[0])
		}
		m.purpose, body = Purpose(body[1]), body[2:]
	}
	fs, err := wire.UnmarshalList(body)
	if err != nil {
		return bad()
	}
	ok := false
	switch {
	case m.kind == kindHello && len(fs) == 3:
		var ok1, ok2, ok3 bool
		m.pub, ok1 = fs[0].AsBytes()
		m.nonce, ok2 = fs[1].AsBytes()
		m.origin, ok3 = fs[2].AsStr()
		ok = ok1 && ok2 && ok3 && len(m.nonce) > 0
	case m.kind == kindAttest && len(fs) == 3:
		var ok1, ok2, ok3 bool
		m.pub, ok1 = fs[0].AsBytes()
		m.quote, ok2 = quoteOf(fs[1])
		m.demand, ok3 = fs[2].AsBool()
		ok = ok1 && ok2 && ok3
	case m.kind == kindReject && len(fs) == 1:
		m.status, ok = fs[0].AsStr()
	case m.kind == kindProve && len(fs) == 1:
		if ok = fs[0].Kind() == wire.KindNull; !ok {
			m.quote, ok = quoteOf(fs[0])
		}
	case m.kind == kindReady && len(fs) == 0:
		ok = true
	}
	if !ok {
		return bad()
	}
	return m, nil
}

// ---- digests -----------------------------------------------------------

// digest hashes label and the length-prefixed parts.
func digest(label string, parts ...[]byte) []byte {
	h := sha256.New()
	h.Write([]byte(label))
	var n [4]byte
	for _, p := range parts {
		binary.BigEndian.PutUint32(n[:], uint32(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return h.Sum(nil)
}

// transcript is the responder's report data; see the file comment.
func transcript(p Purpose, demand bool, initPub, respPub, nonce []byte, initOrigin, respOrigin string) []byte {
	terms := []byte{Version, byte(p), 0}
	if demand {
		terms[2] = 1
	}
	return digest(kxLabel, terms, initPub, respPub, nonce, []byte(initOrigin), []byte(respOrigin))
}

// arm derives the channel key from this end's private key, the other
// end's public key and the transcript, and arms the cipher with it.
func (c *Conn) arm(priv *ecdh.PrivateKey, remotePub, transcript []byte, initiator bool) error {
	pub, err := ecdh.X25519().NewPublicKey(remotePub)
	if err != nil {
		return fmt.Errorf("%w: remote key: %v", ErrHandshake, err)
	}
	shared, err := priv.ECDH(pub)
	if err != nil {
		return fmt.Errorf("%w: ecdh: %v", ErrHandshake, err)
	}
	var key [32]byte
	copy(key[:], digest(keyLabel, shared, transcript))
	if err := c.setKey(key, initiator); err != nil {
		return fmt.Errorf("%w: cipher: %v", ErrHandshake, err)
	}
	return nil
}

// ---- message I/O -------------------------------------------------------

// put writes one handshake message, sealed once the cipher is armed.
func (c *Conn) put(m message) error {
	frame := appendMessage(c.Frame(), m)
	var err error
	if c.aead != nil {
		_, err = c.Send(frame)
	} else if err = c.fits(len(frame) - headerLen); err == nil {
		_, err = c.write(frame)
	}
	if err != nil {
		return fmt.Errorf("%w: send: %w", ErrHandshake, err)
	}
	return nil
}

// expect reads the one kind of handshake message that may come next,
// through the cipher once it is armed. A refusal in its place comes back
// as a *RejectError.
func (c *Conn) expect(kind msgKind) (message, error) {
	read := c.readFrame
	if c.aead != nil {
		read = c.Recv
	}
	buf, err := read()
	if err != nil {
		return message{}, fmt.Errorf("%w: receive: %w", ErrHandshake, err)
	}
	m, err := decodeMessage(buf)
	switch {
	case err != nil:
	case m.kind == kindReject:
		err = &RejectError{Status: m.status}
	case m.kind != kind:
		err = fmt.Errorf("%w: unexpected message %d, want %d", ErrHandshake, m.kind, kind)
	}
	return m, err
}

// begin puts the handshake under HandshakeTimeout and generates this
// end's ephemeral key. The caller clears the deadline when it returns.
func begin(nc net.Conn) (*Conn, *ecdh.PrivateKey, error) {
	_ = nc.SetDeadline(time.Now().Add(HandshakeTimeout)) // a conn without deadlines runs unbounded
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: keygen: %v", ErrHandshake, err)
	}
	return newConn(nc), priv, nil
}

// ---- the two ends ------------------------------------------------------

// Initiate runs the initiator's side over nc: it requires the responder
// to prove measurement expect while speaking for remoteOrigin, and
// proves local.Enclave in return when the responder demands it. A
// refusal before attestation comes back as a *RejectError. nc stays the
// caller's to close, on failure too.
func Initiate(nc net.Conn, plane Plane, local Identity, remoteOrigin string, expect [32]byte) (*Conn, error) {
	c, priv, err := begin(nc)
	if err != nil {
		return nil, err
	}
	defer nc.SetDeadline(time.Time{})
	hello := message{kind: kindHello, purpose: plane.Purpose, pub: priv.PublicKey().Bytes(), nonce: make([]byte, 16), origin: local.Origin}
	if _, err := rand.Read(hello.nonce); err != nil {
		return nil, fmt.Errorf("%w: nonce: %v", ErrHandshake, err)
	}
	if err := c.put(hello); err != nil {
		return nil, err
	}
	attest, err := c.expect(kindAttest)
	if err != nil {
		return nil, err
	}
	// The quote must verify under the shared platform against the expected
	// measurement and carry exactly this exchange's transcript — otherwise
	// it is a quote issued for somebody else's channel.
	if err := local.Platform.Verify(*attest.quote, expect); err != nil {
		return nil, fmt.Errorf("%w: responder quote: %w", ErrHandshake, err)
	}
	t := transcript(plane.Purpose, attest.demand, hello.pub, attest.pub, hello.nonce, local.Origin, remoteOrigin)
	if !bytes.Equal(attest.quote.ReportData, t) {
		return nil, fmt.Errorf("%w: responder quote not bound to this channel", ErrHandshake)
	}
	if err := c.arm(priv, attest.pub, t, true); err != nil {
		return nil, err
	}
	prove := message{kind: kindProve}
	if attest.demand && local.Enclave != nil {
		q, err := local.Platform.Quote(local.Enclave, digest(proveLabel, t))
		if err != nil {
			return nil, fmt.Errorf("%w: local quote: %w", ErrHandshake, err)
		}
		prove.quote = &q
	}
	if err := c.put(prove); err != nil {
		return nil, err
	}
	if _, err := c.expect(kindReady); err != nil {
		return nil, err
	}
	c.budget, c.remote = plane.MaxFrame, remoteOrigin
	return c, nil
}

// Accept runs the responder's side over an accepted nc. admit sees the
// origin the hello claims before anything is quoted: it returns the
// measurement the initiator's enclave must prove for that origin (nil
// on a one-sided plane), or a *RejectError whose status is sent back in
// place of the attestation. The error admit returns is the error Accept
// returns.
func Accept(nc net.Conn, plane Plane, local Identity, admit func(origin string) (demand *[32]byte, err error)) (*Conn, error) {
	c, priv, err := begin(nc)
	if err != nil {
		return nil, err
	}
	defer nc.SetDeadline(time.Time{})
	// A refusal is the last thing this end says; the initiator is owed
	// nothing more, so whether it arrives is not checked.
	reject := func(status string) { _ = c.put(message{kind: kindReject, status: status}) }
	hello, err := c.expect(kindHello)
	switch {
	case errors.Is(err, ErrVersion):
		reject(StatusVersion)
		return nil, err
	case err != nil:
		return nil, err
	case hello.purpose != plane.Purpose:
		reject(StatusPurpose)
		return nil, fmt.Errorf("%w: hello for plane %d on plane %d", ErrHandshake, hello.purpose, plane.Purpose)
	}
	demand, err := admit(hello.origin)
	if err != nil {
		var rej *RejectError
		if errors.As(err, &rej) {
			reject(rej.Status)
		}
		return nil, err
	}
	if local.Enclave == nil {
		// The world was killed under its listener.
		return nil, fmt.Errorf("%w: no enclave to attest", ErrHandshake)
	}
	pub := priv.PublicKey().Bytes()
	t := transcript(plane.Purpose, demand != nil, hello.pub, pub, hello.nonce, hello.origin, local.Origin)
	quote, err := local.Platform.Quote(local.Enclave, t)
	if err != nil {
		return nil, fmt.Errorf("%w: local quote: %w", ErrHandshake, err)
	}
	if err := c.put(message{kind: kindAttest, pub: pub, quote: &quote, demand: demand != nil}); err != nil {
		return nil, err
	}
	if err := c.arm(priv, hello.pub, t, false); err != nil {
		return nil, err
	}
	// A prove that opens shows the initiator holds the private half of the
	// key in its hello; its quote, when demanded, shows whose key that is.
	prove, err := c.expect(kindProve)
	if err != nil {
		return nil, err
	}
	switch {
	case demand == nil && prove.quote != nil:
		return nil, fmt.Errorf("%w: initiator sent a proof nobody demanded", ErrHandshake)
	case demand == nil:
	case prove.quote == nil:
		return nil, fmt.Errorf("%w: initiator sent no proof for origin %q", ErrHandshake, hello.origin)
	default:
		if err := local.Platform.Verify(*prove.quote, *demand); err != nil {
			return nil, fmt.Errorf("%w: initiator quote: %w", ErrHandshake, err)
		}
		if !bytes.Equal(prove.quote.ReportData, digest(proveLabel, t)) {
			return nil, fmt.Errorf("%w: initiator quote not bound to this channel", ErrHandshake)
		}
	}
	if err := c.put(message{kind: kindReady}); err != nil {
		return nil, err
	}
	c.budget, c.remote = plane.MaxFrame, hello.origin
	return c, nil
}
