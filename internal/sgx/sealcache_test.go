package sgx

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"montsalvat/internal/cycles"
	"montsalvat/internal/simcfg"
)

// enclaveSignedBy is initializedEnclave under a given signing identity.
func enclaveSignedBy(t *testing.T, s *Signer, image []byte) *Enclave {
	t.Helper()
	e, err := Create(simcfg.Default(), cycles.New(simcfg.CPUHz), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddPages(image); err != nil {
		t.Fatal(err)
	}
	ss, err := s.Sign(e.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Init(ss); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSealCacheKeepsIdentitiesApart warms every cache involved — each
// enclave seals and unseals its own blob first — and then checks that a
// cached cipher is never the answer to another identity's, platform's or
// policy's question.
func TestSealCacheKeepsIdentitiesApart(t *testing.T) {
	other, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	secret, secret2 := testSecret(t), testSecret(t)
	a := enclaveSignedBy(t, testSigner(t), []byte("image A"))
	b := enclaveSignedBy(t, testSigner(t), []byte("image B")) // other MRENCLAVE, same MRSIGNER
	c := enclaveSignedBy(t, other, []byte("image A"))         // same MRENCLAVE, other MRSIGNER
	if a.Measurement() != c.Measurement() || a.mrsigner == c.mrsigner || a.Measurement() == b.Measurement() {
		t.Fatal("test enclaves do not differ the way the test needs")
	}

	type holder struct {
		name   string
		e      *Enclave
		secret PlatformSecret
		policy SealPolicy
	}
	holders := []holder{
		{"A/mrenclave", a, secret, SealToMRENCLAVE},
		{"A/mrsigner", a, secret, SealToMRSIGNER},
		{"A/mrenclave/platform2", a, secret2, SealToMRENCLAVE},
		{"B/mrenclave", b, secret, SealToMRENCLAVE},
		{"C/mrsigner", c, secret, SealToMRSIGNER},
	}
	aad := []byte("aad")
	blobs := make([][]byte, len(holders))
	for round := 0; round < 2; round++ { // the second round runs on warm caches
		for i, h := range holders {
			blob, err := h.e.Seal(h.secret, h.policy, []byte(h.name), aad)
			if err != nil {
				t.Fatalf("%s: seal: %v", h.name, err)
			}
			if got, err := h.e.Unseal(h.secret, h.policy, blob, aad); err != nil || string(got) != h.name {
				t.Fatalf("%s: own blob: %q, %v", h.name, got, err)
			}
			blobs[i] = blob
		}
		for i, from := range holders {
			for j, to := range holders {
				if i == j {
					continue
				}
				if got, err := to.e.Unseal(to.secret, to.policy, blobs[i], aad); !errors.Is(err, ErrUnseal) {
					t.Fatalf("round %d: %s opened %s's blob: %q, %v", round, to.name, from.name, got, err)
				}
			}
		}
	}
	// Same author, other image: MRSIGNER blobs do cross, as before.
	shared, err := a.Seal(secret, SealToMRSIGNER, []byte("author"), aad)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := b.Unseal(secret, SealToMRSIGNER, shared, aad); err != nil || string(got) != "author" {
		t.Fatalf("MRSIGNER blob across images: %q, %v", got, err)
	}
}

// TestSealRefusesDestroyedEnclave: the state check is not cached.
func TestSealRefusesDestroyedEnclave(t *testing.T) {
	e, _ := initializedEnclave(t, []byte("image"))
	secret := testSecret(t)
	blob, err := e.Seal(secret, SealToMRSIGNER, []byte("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Destroy()
	if _, err := e.Seal(secret, SealToMRSIGNER, []byte("x"), nil); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("Seal on a destroyed enclave: %v, want ErrNotInitialized", err)
	}
	if _, err := e.Unseal(secret, SealToMRSIGNER, blob, nil); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("Unseal on a destroyed enclave: %v, want ErrNotInitialized", err)
	}
}

// TestSealNonceIsFreshPerBlob: the cipher is reused, the nonce never.
func TestSealNonceIsFreshPerBlob(t *testing.T) {
	e, _ := initializedEnclave(t, []byte("image"))
	secret := testSecret(t)
	plain := bytes.Repeat([]byte{7}, 128)
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		blob, err := e.Seal(secret, SealToMRSIGNER, plain, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != len(plain)+sealedOverhead {
			t.Fatalf("blob of %d bytes, want %d", len(blob), len(plain)+sealedOverhead)
		}
		if seen[string(blob[:sealedNonce])] || seen[string(blob[sealedNonce:])] {
			t.Fatalf("seal %d repeated a nonce or a ciphertext", i)
		}
		seen[string(blob[:sealedNonce])], seen[string(blob[sealedNonce:])] = true, true
	}
}

// TestSealCacheIsBounded: a caller cycling platform secrets neither grows
// the cache past its bound nor loses the ability to unseal.
func TestSealCacheIsBounded(t *testing.T) {
	e, _ := initializedEnclave(t, []byte("image"))
	first := testSecret(t)
	blob, err := e.Seal(first, SealToMRENCLAVE, []byte("kept"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*maxSealCiphers; i++ {
		if _, err := e.Seal(testSecret(t), SealToMRENCLAVE, []byte("x"), nil); err != nil {
			t.Fatal(err)
		}
		e.mu.Lock()
		n := len(e.sealCiphers)
		e.mu.Unlock()
		if n > maxSealCiphers {
			t.Fatalf("cache holds %d ciphers, bound is %d", n, maxSealCiphers)
		}
	}
	if got, err := e.Unseal(first, SealToMRENCLAVE, blob, nil); err != nil || string(got) != "kept" {
		t.Fatalf("unseal after eviction: %q, %v", got, err)
	}
}

// TestSealSharedCipherConcurrent seals and unseals from many goroutines
// through the one cached cipher (run under -race).
func TestSealSharedCipherConcurrent(t *testing.T) {
	e, _ := initializedEnclave(t, []byte("image"))
	secret := testSecret(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			plain := bytes.Repeat([]byte{byte(g)}, 64+g)
			for i := 0; i < 200; i++ {
				policy := SealPolicy(1 + i%2)
				blob, err := e.Seal(secret, policy, plain, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := e.Unseal(secret, policy, blob, nil); err != nil || !bytes.Equal(got, plain) {
					t.Errorf("goroutine %d: round trip: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSealAllocs: a seal costs its output buffer; the nonce is drawn into
// the head of it and the cipher comes from the cache.
func TestSealAllocs(t *testing.T) {
	e, _ := initializedEnclave(t, []byte("image"))
	secret := testSecret(t)
	plain := make([]byte, 128)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Seal(secret, SealToMRSIGNER, plain, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Seal(128 B) = %v allocs, want <= 2", allocs)
	}
}
