package mee

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// refXORKeystream and refTag are the byte-at-a-time keystream and tag of
// the single-line engine that preceded the run kernel, kept as the
// reference the kernel's ciphertext and tags must equal bit for bit.
func refXORKeystream(e *Engine, dst, src []byte, addr, version uint64) {
	var ctr [aes.BlockSize]byte
	var ks [LineBytes]byte
	binary.LittleEndian.PutUint64(ctr[0:8], addr)
	for blk := 0; blk < LineBytes/aes.BlockSize; blk++ {
		binary.LittleEndian.PutUint64(ctr[8:16], version<<8|uint64(blk))
		e.block.Encrypt(ks[blk*aes.BlockSize:(blk+1)*aes.BlockSize], ctr[:])
	}
	for i := 0; i < LineBytes; i++ {
		dst[i] = src[i] ^ ks[i]
	}
}

func refTag(e *Engine, ct []byte, addr, version uint64) Tag {
	var fold [aes.BlockSize]byte
	for i, b := range ct {
		fold[i%aes.BlockSize] ^= b
	}
	binary.LittleEndian.PutUint64(fold[0:8], binary.LittleEndian.Uint64(fold[0:8])^addr)
	binary.LittleEndian.PutUint64(fold[8:16], binary.LittleEndian.Uint64(fold[8:16])^version)
	var out [aes.BlockSize]byte
	e.tagK.Encrypt(out[:], fold[:])
	var t Tag
	copy(t[:], out[:TagBytes])
	return t
}

// TestLinesMatchReference encrypts random runs (1–2,048 lines, random
// base address and per-line versions, in place and out of place) with the
// kernel and with the reference, and decrypts them back.
func TestLinesMatchReference(t *testing.T) {
	e := testEngine(t)
	rng := rand.New(rand.NewSource(1))
	var s Scratch
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(2048)
		if iter < 4 {
			n = []int{1, 2, 64, 2048}[iter]
		}
		addr := rng.Uint64() >> uint(rng.Intn(64))
		plain := make([]byte, n*LineBytes)
		rng.Read(plain)
		versions := make([]uint64, n)
		for i := range versions {
			versions[i] = rng.Uint64() >> uint(rng.Intn(64))
		}

		wantCT := make([]byte, len(plain))
		wantTags := make([]Tag, n)
		for i := 0; i < n; i++ {
			line := wantCT[i*LineBytes : (i+1)*LineBytes]
			refXORKeystream(e, line, plain[i*LineBytes:(i+1)*LineBytes], addr+uint64(i), versions[i])
			wantTags[i] = refTag(e, line, addr+uint64(i), versions[i])
		}

		src := append([]byte(nil), plain...)
		dst := src // in place
		if iter%2 == 0 {
			dst = make([]byte, len(plain))
		}
		tags := make([]Tag, n)
		if err := e.EncryptLines(&s, dst, src, addr, versions, tags); err != nil {
			t.Fatalf("EncryptLines(%d lines): %v", n, err)
		}
		if !bytes.Equal(dst, wantCT) {
			t.Fatalf("run of %d lines at %#x: ciphertext differs from reference", n, addr)
		}
		for i := range tags {
			if tags[i] != wantTags[i] {
				t.Fatalf("run of %d lines at %#x: tag %d differs from reference", n, addr, i)
			}
		}

		out := dst
		if iter%4 < 2 {
			out = make([]byte, len(plain))
		}
		done, err := e.DecryptLines(&s, out, dst, addr, versions, tags)
		if err != nil || done != n {
			t.Fatalf("DecryptLines(%d lines) = %d, %v", n, done, err)
		}
		if !bytes.Equal(out, plain) {
			t.Fatalf("run of %d lines at %#x did not round-trip", n, addr)
		}
	}
}

// A corrupted line stops the run: the lines ahead of it are decrypted and
// counted, the line itself and everything behind it are left alone.
func TestDecryptLinesStopsAtBadLine(t *testing.T) {
	const n = 8
	for _, bad := range []int{0, 3, n - 1} {
		e := testEngine(t)
		var s Scratch
		plain := make([]byte, n*LineBytes)
		for i := range plain {
			plain[i] = byte(i)
		}
		ct := make([]byte, len(plain))
		versions := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
		tags := make([]Tag, n)
		if err := e.EncryptLines(&s, ct, plain, 100, versions, tags); err != nil {
			t.Fatal(err)
		}
		ct[bad*LineBytes+5] ^= 1
		out := make([]byte, len(plain))
		done, err := e.DecryptLines(&s, out, ct, 100, versions, tags)
		if !errors.Is(err, ErrIntegrity) || done != bad {
			t.Fatalf("bad line %d: DecryptLines = %d, %v; want %d, ErrIntegrity", bad, done, err, bad)
		}
		if !bytes.Equal(out[:bad*LineBytes], plain[:bad*LineBytes]) {
			t.Fatalf("bad line %d: lines ahead of it were not decrypted", bad)
		}
		if !bytes.Equal(out[bad*LineBytes:], make([]byte, (n-bad)*LineBytes)) {
			t.Fatalf("bad line %d: output written at or behind the failing line", bad)
		}
		st := e.Stats()
		if st.LinesDecrypted != uint64(bad) || st.IntegrityFailures != 1 || st.LinesEncrypted != n {
			t.Fatalf("bad line %d: stats %+v", bad, st)
		}
	}
}

func TestLinesRejectMismatchedLengths(t *testing.T) {
	e := testEngine(t)
	var s Scratch
	buf := make([]byte, 2*LineBytes)
	if err := e.EncryptLines(&s, buf, buf[:LineBytes], 0, []uint64{1, 2}, make([]Tag, 2)); err == nil {
		t.Fatal("EncryptLines accepted a short source")
	}
	if err := e.EncryptLines(&s, buf, buf, 0, []uint64{1, 2}, make([]Tag, 1)); err == nil {
		t.Fatal("EncryptLines accepted a short tag array")
	}
	if _, err := e.DecryptLines(&s, buf[:LineBytes+1], buf, 0, []uint64{1, 2}, make([]Tag, 2)); err == nil {
		t.Fatal("DecryptLines accepted a ragged destination")
	}
}

// One Engine serves many callers at once, each with its own Scratch.
func TestLinesConcurrentCallers(t *testing.T) {
	e := testEngine(t)
	const callers, n = 4, 32
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			var s Scratch
			plain := bytes.Repeat([]byte{byte(c)}, n*LineBytes)
			ct := make([]byte, len(plain))
			versions := make([]uint64, n)
			tags := make([]Tag, n)
			for round := 1; round <= 50; round++ {
				for i := range versions {
					versions[i] = uint64(round)
				}
				if err := e.EncryptLines(&s, ct, plain, uint64(c)<<20, versions, tags); err != nil {
					errs <- err
					return
				}
				if _, err := e.DecryptLines(&s, ct, ct, uint64(c)<<20, versions, tags); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(ct, plain) {
					errs <- errors.New("round trip corrupted under concurrency")
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().LinesEncrypted; got != callers*n*50 {
		t.Fatalf("LinesEncrypted = %d, want %d", got, callers*n*50)
	}
}

func TestEncryptLinesDoesNotAllocate(t *testing.T) {
	e := testEngine(t)
	var s Scratch
	const n = 64
	buf := make([]byte, n*LineBytes)
	versions := make([]uint64, n)
	tags := make([]Tag, n)
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.EncryptLines(&s, buf, buf, 0, versions, tags); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EncryptLines of %d lines allocates %.0f times", n, allocs)
	}
}

func BenchmarkEncryptLines(b *testing.B) {
	e, err := New()
	if err != nil {
		b.Fatal(err)
	}
	var s Scratch
	const n = 64
	src := make([]byte, n*LineBytes)
	dst := make([]byte, n*LineBytes)
	versions := make([]uint64, n)
	tags := make([]Tag, n)
	b.ReportAllocs()
	b.SetBytes(n * LineBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range versions {
			versions[j]++
		}
		if err := e.EncryptLines(&s, dst, src, 0, versions, tags); err != nil {
			b.Fatal(err)
		}
	}
}
