// Package mee implements the memory-encryption-engine analog of the SGX
// simulation.
//
// On real SGX hardware, all EPC pages in DRAM are encrypted and only
// decrypted by the MEE when loaded into a CPU cache line (paper §2.1). The
// simulator reproduces this with real cryptographic work: every 64-byte
// cache line written to simulated EPC memory is encrypted with AES-CTR
// under a per-enclave key, and authenticated with a keyed tag bound to the
// line address and a version counter (a flat stand-in for the MEE's
// integrity tree). Reads decrypt and verify.
//
// The AES work is real and per line: every line stored costs four
// keystream blocks and one tag block, whether it arrives alone or in a run
// (EncryptLines/DecryptLines take a run of consecutive lines so that the
// caller pays the call, the counters and the scratch once, not the
// cipher). What makes memory-bound enclave workloads slower than their
// untrusted counterparts in the figures, though, is not this host work
// but the cycle ledger: the EPC layer charges simcfg.MEEBytesPerCycle for
// every byte moved, and a measurement adds that charge to the host time it
// took. The kernel here is kept as cheap as the construction allows so
// that the simulator's own overhead stays out of the measurements.
//
// The tag is AES over the ciphertext XOR-folded to one block. It binds
// content, address and version against the replay, relocation and
// single-flip tampering the tests exercise, but flips that cancel within
// one of the sixteen byte columns of a line go unnoticed: it is a
// stand-in for the hardware's integrity tree, not a MAC to reuse.
package mee

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// LineBytes is the MEE granularity: one CPU cache line.
const LineBytes = 64

// TagBytes is the size of the per-line integrity tag.
const TagBytes = 8

// ErrIntegrity is returned when a line fails integrity verification,
// indicating tampering with (or corruption of) encrypted enclave memory.
var ErrIntegrity = errors.New("mee: integrity verification failed")

// Stats holds cumulative MEE counters. Values are monotonically
// increasing; read them with the accessor on Engine for a consistent copy.
type Stats struct {
	// LinesEncrypted and LinesDecrypted count cache-line operations.
	LinesEncrypted uint64
	LinesDecrypted uint64
	// BytesEncrypted and BytesDecrypted count payload bytes processed.
	BytesEncrypted uint64
	BytesDecrypted uint64
	// IntegrityFailures counts failed verifications.
	IntegrityFailures uint64
}

// Engine encrypts and authenticates cache lines under a per-enclave key.
// It is safe for concurrent use.
type Engine struct {
	block cipher.Block // AES-128, data key
	tagK  cipher.Block // AES-128, tag key

	linesEnc atomic.Uint64
	linesDec atomic.Uint64
	bytesEnc atomic.Uint64
	bytesDec atomic.Uint64
	integErr atomic.Uint64
}

// New creates an Engine with a freshly generated random key, modelling the
// per-boot enclave memory-encryption key derived by the CPU.
func New() (*Engine, error) {
	var key [32]byte
	if _, err := rand.Read(key[:]); err != nil {
		return nil, fmt.Errorf("mee: generate key: %w", err)
	}
	return NewWithKey(key[:])
}

// NewWithKey creates an Engine from a 32-byte key (16 bytes for data
// encryption, 16 for tag derivation). Deterministic keys are useful in
// tests.
func NewWithKey(key []byte) (*Engine, error) {
	if len(key) != 32 {
		return nil, fmt.Errorf("mee: key must be 32 bytes, got %d", len(key))
	}
	dataBlock, err := aes.NewCipher(key[:16])
	if err != nil {
		return nil, fmt.Errorf("mee: data cipher: %w", err)
	}
	tagBlock, err := aes.NewCipher(key[16:])
	if err != nil {
		return nil, fmt.Errorf("mee: tag cipher: %w", err)
	}
	return &Engine{block: dataBlock, tagK: tagBlock}, nil
}

// Tag is a per-line integrity tag.
type Tag [TagBytes]byte

// Scratch is the working memory of one kernel call: the counter block,
// one line of keystream and the tag block. The AES block operations go
// through cipher.Block, so buffers declared inside the kernel would
// escape to the heap once per line; instead each serialised caller keeps
// one Scratch (each epc.Memory keeps its own, serialised by the Memory's
// owner) and the Engine
// holds no mutable state beyond its counters.
type Scratch struct {
	ctr  [aes.BlockSize]byte
	ks   [LineBytes]byte
	fold [aes.BlockSize]byte
}

// EncryptLines encrypts a run of len(versions) consecutive cache lines
// from src into dst (which may be the same slice as src). Line i of the
// run has address addr+i, uses a keystream bound to (addr+i, versions[i])
// and leaves its integrity tag in tags[i]. The caller must increment a
// line's version on every write to it to keep keystreams fresh (the EPC
// layer does this). Every line costs the same AES work as a single-line
// call: four keystream blocks and one tag block.
func (e *Engine) EncryptLines(s *Scratch, dst, src []byte, addr uint64, versions []uint64, tags []Tag) error {
	n := len(versions)
	if err := checkRun(n, len(dst), len(src), len(tags)); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		d := dst[i*LineBytes : (i+1)*LineBytes]
		e.xorKeystream(s, d, src[i*LineBytes:(i+1)*LineBytes], addr+uint64(i), versions[i])
		tags[i] = e.tag(s, d, addr+uint64(i), versions[i])
	}
	e.linesEnc.Add(uint64(n))
	e.bytesEnc.Add(uint64(n) * LineBytes)
	return nil
}

// DecryptLines verifies and decrypts a run of consecutive cache lines
// laid out as for EncryptLines. Each line's tag is checked before that
// line is decrypted; at the first mismatch it stops and returns
// ErrIntegrity. The first return value is the number of leading lines
// that verified and now hold plaintext in dst.
func (e *Engine) DecryptLines(s *Scratch, dst, src []byte, addr uint64, versions []uint64, tags []Tag) (int, error) {
	n := len(versions)
	if err := checkRun(n, len(dst), len(src), len(tags)); err != nil {
		return 0, err
	}
	var err error
	done := 0
	for ; done < n; done++ {
		c := src[done*LineBytes : (done+1)*LineBytes]
		a, v := addr+uint64(done), versions[done]
		if e.tag(s, c, a, v) != tags[done] {
			e.integErr.Add(1)
			err = fmt.Errorf("%w (addr=%#x version=%d)", ErrIntegrity, a, v)
			break
		}
		e.xorKeystream(s, dst[done*LineBytes:(done+1)*LineBytes], c, a, v)
	}
	e.linesDec.Add(uint64(done))
	e.bytesDec.Add(uint64(done) * LineBytes)
	return done, err
}

func checkRun(n, dst, src, tags int) error {
	if dst != n*LineBytes || src != n*LineBytes || tags != n {
		return fmt.Errorf("mee: run of %d lines needs %d bytes and %d tags, got src=%d dst=%d tags=%d", n, n*LineBytes, n, src, dst, tags)
	}
	return nil
}

// EncryptLine encrypts exactly LineBytes from src into dst (which may
// alias src) and returns the integrity tag: EncryptLines for a run of one.
func (e *Engine) EncryptLine(dst, src []byte, addr uint64, version uint64) (Tag, error) {
	var s Scratch
	var tag [1]Tag
	err := e.EncryptLines(&s, dst, src, addr, []uint64{version}, tag[:])
	return tag[0], err
}

// DecryptLine verifies the tag for the ciphertext in src and decrypts it
// into dst (which may alias src): DecryptLines for a run of one. It
// returns ErrIntegrity if the tag does not match.
func (e *Engine) DecryptLine(dst, src []byte, addr uint64, version uint64, tag Tag) error {
	var s Scratch
	_, err := e.DecryptLines(&s, dst, src, addr, []uint64{version}, []Tag{tag})
	return err
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		LinesEncrypted:    e.linesEnc.Load(),
		LinesDecrypted:    e.linesDec.Load(),
		BytesEncrypted:    e.bytesEnc.Load(),
		BytesDecrypted:    e.bytesDec.Load(),
		IntegrityFailures: e.integErr.Load(),
	}
}

// xorKeystream applies the CTR keystream for (addr, version) to one line,
// eight bytes at a time.
func (e *Engine) xorKeystream(s *Scratch, dst, src []byte, addr uint64, version uint64) {
	binary.LittleEndian.PutUint64(s.ctr[0:8], addr)
	// The top bytes carry the version and block index so that every
	// (addr, version, block) triple yields a unique counter block.
	for blk := 0; blk < LineBytes/aes.BlockSize; blk++ {
		binary.LittleEndian.PutUint64(s.ctr[8:16], version<<8|uint64(blk))
		e.block.Encrypt(s.ks[blk*aes.BlockSize:(blk+1)*aes.BlockSize], s.ctr[:])
	}
	dst, src = dst[:LineBytes], src[:LineBytes]
	for i := 0; i < LineBytes; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:i+8], binary.LittleEndian.Uint64(src[i:i+8])^binary.LittleEndian.Uint64(s.ks[i:i+8]))
	}
}

// tag computes the keyed integrity tag for one ciphertext line: an AES
// encryption (under the tag key) of the ciphertext XOR-folded to one
// block (as two 64-bit halves) and mixed with the line address and
// version — a Carter-Wegman-style MAC that is cheap (one block op) yet
// binds content, location and freshness.
func (e *Engine) tag(s *Scratch, ct []byte, addr uint64, version uint64) Tag {
	ct = ct[:LineBytes]
	lo, hi := addr, version
	for i := 0; i < LineBytes; i += aes.BlockSize {
		lo ^= binary.LittleEndian.Uint64(ct[i : i+8])
		hi ^= binary.LittleEndian.Uint64(ct[i+8 : i+16])
	}
	binary.LittleEndian.PutUint64(s.fold[0:8], lo)
	binary.LittleEndian.PutUint64(s.fold[8:16], hi)
	e.tagK.Encrypt(s.fold[:], s.fold[:])
	var t Tag
	copy(t[:], s.fold[:TagBytes])
	return t
}
