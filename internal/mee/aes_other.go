//go:build !amd64 || purego

package mee

import "crypto/aes"

// Off amd64 and under purego every key takes the portable path.
func roundKeys([]byte) *[11 * aes.BlockSize]byte { return nil }

func encryptBlocksAsm(*[11 * aes.BlockSize]byte, []byte, []byte) { panic("mee: no AES-NI kernel") }
