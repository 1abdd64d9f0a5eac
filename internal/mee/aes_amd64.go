//go:build amd64 && !purego

package mee

import (
	"crypto/aes"
	"math/bits"
)

// aesNI reports whether the CPU has the AES instructions.
var aesNI = hasAESNI()

// encryptBlocksAsm is the AES-NI kernel: eight blocks in flight, then one
// at a time.
//
//go:noescape
func encryptBlocksAsm(rk *[11 * aes.BlockSize]byte, dst, src []byte)

// hasAESNI reads CPUID leaf 1, ECX bit 25.
func hasAESNI() bool

// roundKeys is the AES-128 key schedule (FIPS-197 §5.2), or nil without
// AES-NI. The standard library keeps its round keys unexported, so the
// kernel derives its own, once per Engine.
func roundKeys(key []byte) *[11 * aes.BlockSize]byte {
	if !aesNI {
		return nil
	}
	rk := new([11 * aes.BlockSize]byte)
	copy(rk[:], key)
	rcon := byte(1)
	for i := aes.BlockSize; i < len(rk); i += 4 {
		t := [4]byte(rk[i-4 : i])
		if i%aes.BlockSize == 0 {
			t = [4]byte{sbox[t[1]] ^ rcon, sbox[t[2]], sbox[t[3]], sbox[t[0]]}
			rcon = rcon<<1 ^ (rcon>>7)*0x1b
		}
		for j, b := range t {
			rk[i+j] = rk[i-aes.BlockSize+j] ^ b
		}
	}
	return rk
}

// sbox is the AES S-box (FIPS-197 §5.1.1) built from its definition, the
// inverse in GF(2^8) followed by the affine map: p steps through the
// nonzero elements as the powers of 3 and q through the same powers of
// 3's inverse, so q is p's inverse at every step.
var sbox = func() (s [256]byte) {
	s[0] = 0x63
	for p, q := byte(1), byte(1); ; {
		p ^= p<<1 ^ (p>>7)*0x1b
		q ^= q << 1
		q ^= q << 2
		q ^= q << 4
		q ^= (q >> 7) * 0x09
		s[p] = q ^ bits.RotateLeft8(q, 1) ^ bits.RotateLeft8(q, 2) ^ bits.RotateLeft8(q, 3) ^ bits.RotateLeft8(q, 4) ^ 0x63
		if p == 1 {
			return s
		}
	}
}()
