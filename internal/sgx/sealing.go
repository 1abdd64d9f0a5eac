package sgx

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
)

// Sealing — the EGETKEY/seal-data facility of the SGX SDK. An enclave
// derives a sealing key bound to its identity and encrypts data so that
// only the same enclave (MRENCLAVE policy) or any enclave from the same
// author (MRSIGNER policy) on the same platform can recover it. Sealed
// blobs survive enclave teardown: persist them through the untrusted
// filesystem and unseal after restart + re-attestation.
//
// Keys are derived HKDF-style from a per-platform hardware secret (the
// analog of the CPU's fused seal key) plus the chosen identity.

// SealPolicy selects the identity the sealing key binds to.
type SealPolicy int

// Seal policies.
const (
	// SealToMRENCLAVE binds sealed data to this exact enclave image.
	SealToMRENCLAVE SealPolicy = iota + 1
	// SealToMRSIGNER binds sealed data to the enclave author, so
	// upgraded enclave versions can unseal old data.
	SealToMRSIGNER
)

func (p SealPolicy) String() string {
	if p == SealToMRENCLAVE {
		return "MRENCLAVE"
	}
	return "MRSIGNER"
}

// ErrUnseal is returned when a sealed blob cannot be recovered: wrong
// enclave identity, wrong platform, or tampered ciphertext.
var ErrUnseal = errors.New("sgx: unseal failed")

// A sealed blob is nonce, ciphertext, GCM tag.
const (
	sealedNonce    = 12
	sealedOverhead = sealedNonce + 16
)

// PlatformSecret is the per-machine hardware seal secret. A Platform
// owns one; enclaves on the same Platform derive their keys from it.
type PlatformSecret [32]byte

// NewPlatformSecret generates a fresh per-platform seal secret.
func NewPlatformSecret() (PlatformSecret, error) {
	var s PlatformSecret
	if _, err := rand.Read(s[:]); err != nil {
		return PlatformSecret{}, fmt.Errorf("sgx: platform secret: %w", err)
	}
	return s, nil
}

// sealIdentityLocked returns the identity a policy binds to, refusing an
// enclave that is not (or no longer) initialized. Caller holds e.mu.
func (e *Enclave) sealIdentityLocked(policy SealPolicy) ([32]byte, error) {
	if e.st != stateInitialized {
		return [32]byte{}, ErrNotInitialized
	}
	switch policy {
	case SealToMRENCLAVE:
		return e.measurement, nil
	case SealToMRSIGNER:
		return e.mrsigner, nil
	default:
		return [32]byte{}, fmt.Errorf("sgx: unknown seal policy %d", policy)
	}
}

func deriveSealKey(secret PlatformSecret, policy SealPolicy, identity [32]byte) [32]byte {
	mac := hmac.New(sha256.New, secret[:])
	mac.Write([]byte("sgx-seal-key-v1"))
	mac.Write([]byte{byte(policy)})
	mac.Write(identity[:])
	var key [32]byte
	mac.Sum(key[:0])
	return key
}

// sealCacheKey names one sealing key by everything it is derived from.
// The identity is part of the name, not looked up behind it, so a cached
// cipher can only ever be found by a caller that presents — from the
// enclave's own state, under its lock — the identity it was derived for.
type sealCacheKey struct {
	secret   PlatformSecret
	policy   SealPolicy
	identity [32]byte
}

// maxSealCiphers bounds the per-enclave cipher cache. An enclave seals
// under one platform secret and at most both policies; the bound only
// keeps a caller that cycles secrets from growing the cache.
const maxSealCiphers = 8

// sealAEAD returns the AES-256-GCM instance for (secret, policy) under
// this enclave's identity, deriving the key, its schedule and the GCM
// tables on first use and keeping them until the enclave is destroyed.
// The state check runs on every call: a destroyed or not yet initialized
// enclave gets ErrNotInitialized, cache or no cache.
func (e *Enclave) sealAEAD(secret PlatformSecret, policy SealPolicy) (cipher.AEAD, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	identity, err := e.sealIdentityLocked(policy)
	if err != nil {
		return nil, err
	}
	name := sealCacheKey{secret, policy, identity}
	if aead, ok := e.sealCiphers[name]; ok {
		return aead, nil
	}
	aead, err := newSealAEAD(deriveSealKey(secret, policy, identity))
	if err != nil {
		return nil, err
	}
	if len(e.sealCiphers) >= maxSealCiphers {
		clear(e.sealCiphers)
	}
	if e.sealCiphers == nil {
		e.sealCiphers = make(map[sealCacheKey]cipher.AEAD)
	}
	e.sealCiphers[name] = aead
	return aead, nil
}

// Seal encrypts and authenticates data under the enclave's sealing key
// (AES-256-GCM with a fresh random nonce per blob), with additionalData
// bound into the tag (like the SDK's AAD parameter).
func (e *Enclave) Seal(secret PlatformSecret, policy SealPolicy, data, additionalData []byte) ([]byte, error) {
	aead, err := e.sealAEAD(secret, policy)
	if err != nil {
		return nil, err
	}
	// One buffer: the nonce is drawn into its head and the ciphertext
	// and tag are appended behind it.
	blob := make([]byte, sealedNonce, sealedOverhead+len(data))
	if _, err := rand.Read(blob); err != nil {
		return nil, fmt.Errorf("sgx: seal nonce: %w", err)
	}
	return aead.Seal(blob, blob, data, additionalData), nil
}

// Unseal recovers data sealed by Seal. It fails for blobs sealed by a
// different enclave identity (under MRENCLAVE policy), by a different
// author (MRSIGNER), on a different platform, or tampered with.
func (e *Enclave) Unseal(secret PlatformSecret, policy SealPolicy, blob, additionalData []byte) ([]byte, error) {
	aead, err := e.sealAEAD(secret, policy)
	if err != nil {
		return nil, err
	}
	if len(blob) < sealedOverhead {
		return nil, fmt.Errorf("%w: blob too short", ErrUnseal)
	}
	plain, err := aead.Open(nil, blob[:sealedNonce], blob[sealedNonce:], additionalData)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnseal, err)
	}
	return plain, nil
}

// NewChannelAEAD builds an AES-256-GCM AEAD over a negotiated channel
// key, for secure sessions established against an attested enclave
// (e.g. the enclave gateway). Callers own nonce discipline.
func NewChannelAEAD(key [32]byte) (cipher.AEAD, error) {
	return newSealAEAD(key)
}

func newSealAEAD(key [32]byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("sgx: seal cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("sgx: seal gcm: %w", err)
	}
	return aead, nil
}
