// Package mee implements the memory-encryption-engine analog of the SGX
// simulation.
//
// On real SGX hardware, all EPC pages in DRAM are encrypted and only
// decrypted by the MEE when loaded into a CPU cache line (paper §2.1). The
// simulator reproduces this with real cryptographic work: a 64-byte cache
// line of simulated EPC memory is encrypted with AES-CTR under a
// per-enclave key, and authenticated with a keyed tag bound to the line
// address and a version counter (a flat stand-in for the MEE's integrity
// tree). Opening a line verifies and decrypts it.
//
// The engine does the AES work only where its output is used. The EPC
// layer (internal/epc) keeps each page's plaintext beside its ciphertext:
// a store updates the plaintext and the line's version and counts the
// line here (CountEncrypted), and the line is sealed (SealLines) when its
// ciphertext can be observed; a read is served from the plaintext unless
// the ciphertext changed behind the MEE's back, and only then opens the
// line (DecryptLines). The counters therefore read as if every store
// sealed its lines at once. A sealed line costs four keystream blocks and
// one tag block, whether it is sealed alone or in a run. A run goes
// through the cipher up to eight lines at a time, one block call for the
// chunk's keystream and one for its tags; on amd64 with AES-NI that call
// keeps eight blocks in flight. What makes memory-bound enclave workloads
// slower than their untrusted counterparts in the figures, though, is
// not this host work but the cycle ledger: the EPC layer charges
// simcfg.MEEBytesPerCycle for every byte moved, and a measurement adds
// that charge to the host time it took. Neither pipelining nor deferred
// sealing moves it; they keep the simulator's own overhead out of the
// measurements.
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
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// LineBytes is the MEE granularity: one CPU cache line.
const LineBytes = 64

// TagBytes is the size of the per-line integrity tag.
const TagBytes = 8

// chunkLines is the number of lines one pass of the kernel carries: their
// 32 keystream blocks and 8 tag blocks fill the eight-block pipeline.
const chunkLines = 8

// ErrIntegrity is returned when a line fails integrity verification,
// indicating tampering with (or corruption of) encrypted enclave memory.
var ErrIntegrity = errors.New("mee: integrity verification failed")

// Stats holds cumulative MEE counters. Values are monotonically
// increasing; read them with the accessor on Engine for a consistent copy.
type Stats struct {
	// LinesEncrypted and LinesDecrypted count cache-line operations.
	LinesEncrypted uint64
	LinesDecrypted uint64
	// BytesEncrypted and BytesDecrypted count payload bytes processed:
	// LineBytes per line.
	BytesEncrypted uint64
	BytesDecrypted uint64
	// IntegrityFailures counts failed verifications.
	IntegrityFailures uint64
}

// Engine encrypts and authenticates cache lines under a per-enclave key.
// It is safe for concurrent use.
type Engine struct {
	block aesKey // AES-128, data key
	tagK  aesKey // AES-128, tag key

	linesEnc atomic.Uint64
	linesDec atomic.Uint64
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
	var k [2]aesKey // data key, tag key
	for i := range k {
		b, err := aes.NewCipher(key[16*i : 16*i+16])
		if err != nil {
			return nil, fmt.Errorf("mee: cipher: %w", err)
		}
		k[i] = aesKey{b, roundKeys(key[16*i : 16*i+16])}
	}
	return &Engine{block: k[0], tagK: k[1]}, nil
}

// Tag is a per-line integrity tag.
type Tag [TagBytes]byte

// Scratch is the working memory of the kernel: a chunk's counter blocks,
// encrypted in place into keystream, and its fold blocks, encrypted in
// place into tags. The portable path goes through cipher.Block, so
// buffers declared inside the kernel would escape to the heap on every
// call; instead each serialised caller keeps one Scratch (each epc.Memory
// its own) and the Engine holds no mutable state beyond its counters.
type Scratch struct {
	ks   [chunkLines * LineBytes]byte
	fold [chunkLines * aes.BlockSize]byte
}

// SealLines encrypts a run of len(versions) consecutive cache lines
// from src into dst (which may be the same slice as src). Line i of the
// run has address addr+i, uses a keystream bound to (addr+i, versions[i])
// and leaves its integrity tag in tags[i]. The caller must increment a
// line's version on every write to it to keep keystreams fresh (the EPC
// layer does this). Every line costs the same AES work as a run of one:
// four keystream blocks and one tag block. SealLines counts nothing: the
// store that gave a line its version counted it (CountEncrypted).
func (e *Engine) SealLines(s *Scratch, dst, src []byte, addr uint64, versions []uint64, tags []Tag) error {
	n := len(versions)
	if err := checkRun(n, len(dst), len(src), len(tags)); err != nil {
		return err
	}
	for i := 0; i < n; i += chunkLines {
		m := min(chunkLines, n-i)
		a, v := addr+uint64(i), versions[i:i+m]
		ct := dst[i*LineBytes : (i+m)*LineBytes]
		subtle.XORBytes(ct, src[i*LineBytes:(i+m)*LineBytes], e.keystream(s, a, v))
		fold := e.tagBlocks(s, ct, a, v)
		for j := range v {
			tags[i+j] = Tag(fold[j*aes.BlockSize:])
		}
	}
	return nil
}

// CountEncrypted counts n lines, and their bytes, as encrypted: a store
// of n whole or patched lines, each under a fresh version. The EPC seals
// a stored line only when its ciphertext can be observed, but counts it
// when it is stored, so the counters read as eager sealing's did.
func (e *Engine) CountEncrypted(n int) {
	e.linesEnc.Add(uint64(n))
}

// DecryptLines verifies and decrypts a run of consecutive cache lines
// laid out as for SealLines. A line is decrypted only once its tag
// and the tags of every line ahead of it have checked; at the first
// mismatch it stops and returns ErrIntegrity, leaving dst at and behind
// that line unwritten. The first return value is the number of leading
// lines that verified and now hold plaintext in dst.
func (e *Engine) DecryptLines(s *Scratch, dst, src []byte, addr uint64, versions []uint64, tags []Tag) (int, error) {
	n := len(versions)
	if err := checkRun(n, len(dst), len(src), len(tags)); err != nil {
		return 0, err
	}
	var err error
	done := 0
	for done < n && err == nil {
		m := min(chunkLines, n-done)
		a, v := addr+uint64(done), versions[done:done+m]
		ct := src[done*LineBytes : (done+m)*LineBytes]
		fold := e.tagBlocks(s, ct, a, v)
		ok := 0
		for ok < m && Tag(fold[ok*aes.BlockSize:]) == tags[done+ok] {
			ok++
		}
		if ok < m {
			e.integErr.Add(1)
			err = fmt.Errorf("%w (addr=%#x version=%d)", ErrIntegrity, a+uint64(ok), v[ok])
		}
		subtle.XORBytes(dst[done*LineBytes:(done+ok)*LineBytes], ct[:ok*LineBytes], e.keystream(s, a, v[:ok]))
		done += ok
	}
	e.linesDec.Add(uint64(done))
	return done, err
}

func checkRun(n, dst, src, tags int) error {
	if dst != n*LineBytes || src != n*LineBytes || tags != n {
		return fmt.Errorf("mee: run of %d lines needs %d bytes and %d tags, got src=%d dst=%d tags=%d", n, n*LineBytes, n, src, dst, tags)
	}
	return nil
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	enc, dec := e.linesEnc.Load(), e.linesDec.Load()
	return Stats{
		LinesEncrypted:    enc,
		LinesDecrypted:    dec,
		BytesEncrypted:    enc * LineBytes,
		BytesDecrypted:    dec * LineBytes,
		IntegrityFailures: e.integErr.Load(),
	}
}

// keystream returns the CTR keystream of the len(versions) lines from
// addr on, at most a chunk, computed in s.ks. Block blk of line i is the
// data key's encryption of LE(addr+i) ‖ LE(versions[i]<<8 | blk): the
// top bytes carry the version and block index so that every (addr,
// version, block) triple yields a unique counter block.
func (e *Engine) keystream(s *Scratch, addr uint64, versions []uint64) []byte {
	ks := s.ks[:len(versions)*LineBytes]
	le := binary.LittleEndian
	for i, v := range versions {
		c, a := ks[i*LineBytes:][:LineBytes], addr+uint64(i)
		le.PutUint64(c[0:], a)
		le.PutUint64(c[8:], v<<8)
		le.PutUint64(c[16:], a)
		le.PutUint64(c[24:], v<<8|1)
		le.PutUint64(c[32:], a)
		le.PutUint64(c[40:], v<<8|2)
		le.PutUint64(c[48:], a)
		le.PutUint64(c[56:], v<<8|3)
	}
	encryptBlocks(&e.block, ks, ks)
	return ks
}

// tagBlocks returns one block per ciphertext line of ct (at most a
// chunk), computed in s.fold, whose first TagBytes are the line's
// integrity tag: an AES encryption (under the tag key) of the line
// XOR-folded to one block (as two 64-bit halves) and mixed with its
// address and version — a Carter-Wegman-style MAC that is cheap (one
// block op) yet binds content, location and freshness.
func (e *Engine) tagBlocks(s *Scratch, ct []byte, addr uint64, versions []uint64) []byte {
	fold := s.fold[:len(versions)*aes.BlockSize]
	le := binary.LittleEndian
	for i, v := range versions {
		w := ct[i*LineBytes:][:LineBytes]
		lo := addr + uint64(i) ^ le.Uint64(w[0:]) ^ le.Uint64(w[16:]) ^ le.Uint64(w[32:]) ^ le.Uint64(w[48:])
		hi := v ^ le.Uint64(w[8:]) ^ le.Uint64(w[24:]) ^ le.Uint64(w[40:]) ^ le.Uint64(w[56:])
		le.PutUint64(fold[i*aes.BlockSize:], lo)
		le.PutUint64(fold[i*aes.BlockSize+8:], hi)
	}
	encryptBlocks(&e.tagK, fold, fold)
	return fold
}

// aesKey is one AES-128 key: the standard library's cipher (the portable
// path) and, where the AES-NI kernel runs, its round keys (nil elsewhere).
type aesKey struct {
	cipher.Block
	rk *[11 * aes.BlockSize]byte
}

// encryptBlocks is the block primitive: it encrypts the whole blocks of
// src into dst, which is src itself or does not overlap it.
func encryptBlocks(k *aesKey, dst, src []byte) {
	if k.rk != nil {
		encryptBlocksAsm(k.rk, dst[:len(src)], src)
		return
	}
	for i := 0; i+aes.BlockSize <= len(src); i += aes.BlockSize {
		k.Encrypt(dst[i:i+aes.BlockSize], src[i:i+aes.BlockSize])
	}
}
