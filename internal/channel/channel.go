// Package channel is the attested channel every network connection of
// the system terminates in: a gateway session (serve) and a fabric peer
// link (fabric) are the one-sided and the mutual case of the same
// handshake, and after it both speak the same sealed frames.
//
// A frame on the wire is a 4-byte big-endian length and a payload.
// Handshake frames (handshake.go) are small and, until a key exists,
// plaintext; every later payload is AES-256-GCM under the negotiated
// key with a nonce that is never transmitted — a direction tag and the
// count of frames sent that way — so a frame opens exactly once, in
// order, and only at the end it was sent to. Frames are built, sealed
// and opened in place in two buffers the connection reuses.
package channel

import (
	"bufio"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"montsalvat/internal/sgx"
)

const (
	headerLen = 4
	tagLen    = 16
	// Overhead is what a sealed frame adds on the wire to its plaintext:
	// the length prefix and the AEAD tag.
	Overhead = headerLen + tagLen

	// handshakeCap bounds every frame of the handshake on both planes. A
	// hello is ~90 bytes plus the origin, an attest ~220; the cap is what
	// an unauthenticated peer can make this end allocate.
	handshakeCap = 4 << 10
	// keepBuf is the largest frame buffer a connection keeps for reuse;
	// one shipped checkpoint does not pin its megabytes to the channel.
	keepBuf = 64 << 10
)

var (
	// ErrAuth reports a frame that did not open under the channel key at
	// the receive counter: tampered, replayed, reordered or reflected.
	// The channel is unusable afterwards.
	ErrAuth = errors.New("channel: frame authentication failed")
	// ErrFrameTooLarge reports a frame beyond the budget: an outbound one
	// is refused before it is sealed (the channel stays usable), an
	// inbound announcement before anything is allocated for it.
	ErrFrameTooLarge = errors.New("channel: frame exceeds budget")
)

// half is one direction of the cipher: its nonce scratch (the AEAD is
// called through an interface, so a nonce built on the stack would move
// to the heap per frame) and the count of frames that went this way.
type half struct {
	buf [12]byte
	ctr uint64
}

// nonce returns the nonce of the direction's next frame: the direction
// tag, three zero bytes, the frame count.
func (h *half) nonce() []byte {
	binary.BigEndian.PutUint64(h.buf[4:], h.ctr)
	return h.buf[:]
}

// Direction tags: frames from the initiator use 1, from the responder 2.
const (
	dirInitiator byte = 1
	dirResponder byte = 2
)

// Conn is one end of a channel over a net.Conn the caller owns (and
// closes). One goroutine at a time may send and one may receive; callers
// with several senders serialise Frame-encode-Send under a lock of
// their own.
type Conn struct {
	nc     net.Conn
	rd     *bufio.Reader // owns all reads from nc
	budget uint32        // largest payload accepted or sent
	remote string

	aead       cipher.AEAD
	send, recv half
	sendBuf    []byte
	recvBuf    []byte
}

func newConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, rd: bufio.NewReaderSize(nc, 4096), budget: handshakeCap}
}

// setKey arms the cipher; initiator picks which direction tag this end
// sends under.
func (c *Conn) setKey(key [32]byte, initiator bool) error {
	aead, err := sgx.NewChannelAEAD(key)
	if err != nil {
		return err
	}
	c.aead = aead
	c.send.buf[0], c.recv.buf[0] = dirResponder, dirInitiator
	if initiator {
		c.send.buf[0], c.recv.buf[0] = dirInitiator, dirResponder
	}
	return nil
}

// RemoteOrigin is the origin the other end spoke for: the one the
// initiator claimed and proved, or the one the initiator dialled.
func (c *Conn) RemoteOrigin() string { return c.remote }

// Frame returns the empty outbound frame: room for the length prefix,
// behind which the sender encodes its plaintext before Send.
func (c *Conn) Frame() []byte {
	if cap(c.sendBuf) < headerLen || cap(c.sendBuf) > keepBuf {
		c.sendBuf = make([]byte, headerLen, 512)
	}
	return c.sendBuf[:headerLen]
}

// Send seals a frame built on Frame where it lies and writes it in one
// Write, returning the bytes put on the wire.
func (c *Conn) Send(frame []byte) (int, error) {
	if err := c.fits(len(frame) - headerLen + tagLen); err != nil {
		return 0, err
	}
	frame = c.aead.Seal(frame[:headerLen], c.send.nonce(), frame[headerLen:], nil)
	c.send.ctr++
	return c.write(frame)
}

// fits checks an outbound payload of n bytes against the budget.
func (c *Conn) fits(n int) error {
	if n > int(c.budget) {
		return fmt.Errorf("%w: %d bytes, limit %d", ErrFrameTooLarge, n, c.budget)
	}
	return nil
}

// write fills in the length prefix of frame and writes it.
func (c *Conn) write(frame []byte) (int, error) {
	c.sendBuf = frame
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-headerLen))
	return c.nc.Write(frame)
}

// Recv reads the next frame and opens it in place. The plaintext is
// valid until the next Recv.
func (c *Conn) Recv() ([]byte, error) {
	sealed, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	plain, err := c.aead.Open(sealed[:0], c.recv.nonce(), sealed, nil)
	if err != nil {
		return nil, ErrAuth
	}
	c.recv.ctr++
	return plain, nil
}

// readFrame reads one length-prefixed payload into the receive buffer,
// refusing an announcement beyond the budget before allocating for it.
func (c *Conn) readFrame() ([]byte, error) {
	// The header lands in the buffer too: a local array handed to the
	// io.Reader interface would be heap-allocated per frame.
	buf := c.recvBuf
	if cap(buf) < headerLen || cap(buf) > keepBuf {
		buf = make([]byte, headerLen, 512)
	}
	hdr := buf[:headerLen]
	if _, err := io.ReadFull(c.rd, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > c.budget {
		return nil, fmt.Errorf("%w: %d bytes announced, limit %d", ErrFrameTooLarge, n, c.budget)
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	c.recvBuf = buf
	payload := buf[:n]
	if _, err := io.ReadFull(c.rd, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
