package mee

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"
)

// TestEncryptBlocksMatchesStdlib checks the block primitive, whichever
// path this build and CPU take, against cipher.Block.Encrypt: the
// FIPS-197 Appendix C.1 vector, then random keys over every block count
// from 0 to 17 (two passes of the eight-block body and every tail), in
// place and out of place.
func TestEncryptBlocksMatchesStdlib(t *testing.T) {
	fips := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	k := testKey(t, fips("000102030405060708090a0b0c0d0e0f"))
	got := make([]byte, aes.BlockSize)
	encryptBlocks(&k, got, fips("00112233445566778899aabbccddeeff"))
	if want := fips("69c4e0d86a7b0430d8cdb78070b4c55a"); !bytes.Equal(got, want) {
		t.Fatalf("FIPS-197 C.1: got %x, want %x", got, want)
	}

	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20; iter++ {
		key := make([]byte, 16)
		rng.Read(key)
		k := testKey(t, key)
		for n := 0; n <= 17; n++ {
			src := make([]byte, n*aes.BlockSize)
			rng.Read(src)
			want := make([]byte, len(src))
			for i := 0; i < len(src); i += aes.BlockSize {
				k.Block.Encrypt(want[i:], src[i:])
			}
			out := make([]byte, len(src))
			encryptBlocks(&k, out, src)
			if !bytes.Equal(out, want) {
				t.Fatalf("key %x, %d blocks out of place: got %x, want %x", key, n, out, want)
			}
			encryptBlocks(&k, src, src)
			if !bytes.Equal(src, want) {
				t.Fatalf("key %x, %d blocks in place: got %x, want %x", key, n, src, want)
			}
		}
	}
}

// testKey builds an aesKey as NewWithKey does.
func testKey(t *testing.T, key []byte) aesKey {
	t.Helper()
	b, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	return aesKey{b, roundKeys(key)}
}

// TestDecryptLinesStopsAcrossChunks: in a run longer than a chunk, a bad
// line stops the run wherever it falls, at a chunk's first line, inside
// a later chunk or at the run's end. The lines ahead of it are decrypted
// and counted, nothing at or behind it is written, and the failure is
// counted once.
func TestDecryptLinesStopsAcrossChunks(t *testing.T) {
	const n = 20
	for _, bad := range []int{7, 8, 13, 19} {
		e := testEngine(t)
		var s Scratch
		plain := make([]byte, n*LineBytes)
		for i := range plain {
			plain[i] = byte(i)
		}
		versions := make([]uint64, n)
		for i := range versions {
			versions[i] = uint64(i + 1)
		}
		ct := make([]byte, len(plain))
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
		want := Stats{LinesEncrypted: n, LinesDecrypted: uint64(bad), BytesEncrypted: n * LineBytes, BytesDecrypted: uint64(bad) * LineBytes, IntegrityFailures: 1}
		if st := e.Stats(); st != want {
			t.Fatalf("bad line %d: stats %+v, want %+v", bad, st, want)
		}
	}
}
