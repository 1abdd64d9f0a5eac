// Package ring implements the zero-copy data plane of the boundary:
// shared-memory slots that replace the marshal-copy path for proxy
// calls.
//
// A Group is a few rings, each one fixed-capacity slot in untrusted
// shared memory behind a producer lock. A caller that takes a ring's
// lock runs the whole call on its own goroutine: it encodes the request
// directly into the slot (no intermediate buffer) and seals it in place
// with AES-256-GCM — encrypt-on-write into untrusted memory — hands it
// across, opens it in place on the far side and runs the handler, which
// encodes its response into the same slot; the response is sealed,
// handed back and opened. Per-byte cost is therefore one streaming
// crypto pass per direction instead of an MEE-taxed buffer copy per
// crossing.
//
// Each hand-off pays simcfg.RingSubmitCycles, the price of a polled
// shared-memory hand-off: the far side is modelled as a thread already
// polling the slot, so no call waits for a wake-up, and the ledger of a
// ring call depends on nothing but the call. On the trusted side that
// thread's residency is real: each ring of an ecall group holds one TCS
// slot from NewGroup to Close (the enter callback), and its handler
// runs as enclave code (sgx.Enclave.RunResident).
//
// Trust-boundary rules for slot memory: the slots live in UNTRUSTED
// shared memory. Neither side ever stages plaintext in a separate
// enclave buffer — sealing happens as the bytes are produced, opening
// as they are consumed — and authenticity comes from the GCM tag plus
// a (ring, sequence, direction) nonce and the routine id as additional
// authenticated data, so a tampering host yields an authentication
// error, never silently corrupt arguments.
package ring

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"montsalvat/internal/simcfg"
)

// Errors returned by the ring data plane. ErrBusy, ErrTooLarge and
// ErrStopped mean "nothing ran" — callers fall back to the frame path.
var (
	// ErrBusy is returned by TryCall/TryBatch when every ring's
	// producer side is occupied.
	ErrBusy = errors.New("ring: all ring producers busy")
	// ErrTooLarge is returned when an encoded payload exceeds the slot
	// capacity; the caller falls back to the frame path.
	ErrTooLarge = errors.New("ring: payload exceeds slot capacity")
	// ErrStopped is returned for submissions after Close.
	ErrStopped = errors.New("ring: stopped")
)

// gcmNonceSize and gcmOverhead are fixed by the AES-GCM construction.
const (
	gcmNonceSize = 12
	gcmOverhead  = 16
)

// nonce direction markers: request and response streams of one
// sequence number must never share a nonce.
const (
	nonceReq  = 0
	nonceResp = 1
)

// Ring is one slot with its producer lock. A caller holds mu for the
// whole call, so the slot, the sequence number and the residency have
// one owner at a time.
type Ring struct {
	idx int
	mu  sync.Mutex
	seq uint64
	buf []byte // fixed capacity: Config.SlotBytes + gcmOverhead
	// leave releases the ring's residency on the trusted side; nil for
	// a group built without enter.
	leave func()
}

// nonce derives the unique 96-bit nonce of one sealed payload: ring
// index, direction marker and submission sequence. The group key is
// never reused across rings with the same (dir, seq) pair.
func (r *Ring) nonce(dir byte) [gcmNonceSize]byte {
	var n [gcmNonceSize]byte
	binary.LittleEndian.PutUint16(n[0:2], uint16(r.idx))
	n[2] = dir
	binary.LittleEndian.PutUint64(n[4:12], r.seq)
	return n
}

// callAAD binds the routine id into the authenticated data.
func callAAD(id int) [8]byte {
	var a [8]byte
	binary.LittleEndian.PutUint64(a[:], uint64(id))
	return a
}

// newAEAD builds the AES-256-GCM sealer shared by a ring group, under a
// fresh 32-byte session key.
func newAEAD() (cipher.AEAD, error) {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// seal encrypts plain in place in r's slot (dst reuses plain's
// storage) and charges the streaming crypto pass — the one point where
// per-byte cost accrues on this path.
func (g *Group) seal(r *Ring, id int, plain []byte, dir byte) []byte {
	n, a := r.nonce(dir), callAAD(id)
	sealed := g.aead.Seal(plain[:0], n[:], plain, a[:])
	g.sealed.Add(uint64(len(sealed)))
	g.clock.ChargeBytes(len(sealed), simcfg.RingCryptoBytesPerCycle)
	return sealed
}

// open decrypts a sealed slot payload in place. The open is pipelined
// with the streaming read on real hardware, so no second per-byte
// charge accrues here.
func (g *Group) open(r *Ring, id int, sealed []byte, dir byte) ([]byte, error) {
	n, a := r.nonce(dir), callAAD(id)
	plain, err := g.aead.Open(sealed[:0], n[:], sealed, a[:])
	if err != nil {
		return nil, fmt.Errorf("ring: slot authentication failed: %w", err)
	}
	return plain, nil
}
