package sgx

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Monotonic counters — the sgx_create_monotonic_counter facility of the
// SGX platform services. A monotonic counter is a small non-volatile
// integer the platform promises only ever moves forward; enclaves stamp
// its value into sealed state so that a host restoring an older sealed
// blob (a rollback or fork attack) is detected: the blob's stamp no
// longer matches the counter.
//
// The simulation mirrors the hardware trust split. The counter VALUE
// lives in untrusted persistence (a CounterStore — the analog of the
// platform-services non-volatile storage, reachable across enclave
// restarts), but every stored value is authenticated by a MAC under a
// key derived from the per-platform hardware secret. The host can delete
// or corrupt the stored value — that is detectable (ErrCounterTampered)
// — but it cannot fabricate a valid older value without the platform
// secret, which is exactly the hardware guarantee.
//
// This is the rollback-protection primitive of internal/persist: every
// sealed checkpoint and WAL segment header carries a counter stamp (see
// sealing.go for the seal/unseal half of that protocol).

// Counter errors.
var (
	// ErrCounterTampered reports a persisted counter whose MAC does not
	// verify: the untrusted store returned a forged or corrupted value.
	ErrCounterTampered = errors.New("sgx: monotonic counter tampered")
	// ErrCounterWrap reports an increment that would wrap the counter
	// past its maximum — monotonicity cannot be preserved.
	ErrCounterWrap = errors.New("sgx: monotonic counter would wrap")
	// ErrCounterRegressed reports a persisted value lower than one this
	// counter instance already observed — a rolled-back counter store.
	ErrCounterRegressed = errors.New("sgx: monotonic counter regressed")
)

// CounterStore is the per-platform persistence hook for monotonic
// counters: where authenticated (value, MAC) pairs survive enclave —
// and process — restarts. Implementations live in untrusted storage;
// integrity comes from the MAC, not from the store.
type CounterStore interface {
	// LoadCounter returns the persisted value and MAC for id;
	// ok=false when the counter has never been stored.
	LoadCounter(id string) (value uint64, mac [32]byte, ok bool, err error)
	// StoreCounter persists the value and MAC for id.
	StoreCounter(id string, value uint64, mac [32]byte) error
}

// MemCounterStore is an in-memory CounterStore for tests and
// single-process worlds. Safe for concurrent use.
type MemCounterStore struct {
	mu       sync.Mutex
	counters map[string]memCounter
}

type memCounter struct {
	value uint64
	mac   [32]byte
}

// NewMemCounterStore returns an empty in-memory counter store.
func NewMemCounterStore() *MemCounterStore {
	return &MemCounterStore{counters: make(map[string]memCounter)}
}

// LoadCounter implements CounterStore.
func (s *MemCounterStore) LoadCounter(id string) (uint64, [32]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counters[id]
	return c.value, c.mac, ok, nil
}

// StoreCounter implements CounterStore.
func (s *MemCounterStore) StoreCounter(id string, value uint64, mac [32]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters[id] = memCounter{value: value, mac: mac}
	return nil
}

// MonotonicCounter is one named platform counter. Safe for concurrent
// use. A fresh counter starts at 0; Increment persists the new value
// before returning it, so a crash can lose at most an increment the
// caller was never told about.
type MonotonicCounter struct {
	mu    sync.Mutex
	key   [32]byte
	store CounterStore
	id    string
	value uint64
}

// NewMonotonicCounter creates or reopens the platform counter named id.
// Reopening verifies the persisted MAC and rejects tampered values.
func NewMonotonicCounter(secret PlatformSecret, store CounterStore, id string) (*MonotonicCounter, error) {
	if store == nil {
		return nil, errors.New("sgx: nil counter store")
	}
	c := &MonotonicCounter{store: store, id: id, key: counterKey(secret, id)}
	value, mac, ok, err := store.LoadCounter(id)
	if err != nil {
		return nil, fmt.Errorf("sgx: load counter %q: %w", id, err)
	}
	if ok {
		if !hmac.Equal(mac[:], c.mac(value)) {
			return nil, fmt.Errorf("%w: counter %q", ErrCounterTampered, id)
		}
		c.value = value
		return c, nil
	}
	// First use: persist the authenticated zero so a later deletion of
	// the store entry is distinguishable from a fresh counter only by
	// the caller's own bookkeeping (the hardware has the same limit).
	if err := store.StoreCounter(id, 0, c.macArr(0)); err != nil {
		return nil, fmt.Errorf("sgx: init counter %q: %w", id, err)
	}
	return c, nil
}

// Read returns the current counter value, re-verifying the persisted
// copy so a store rolled back underneath a live counter is detected.
func (c *MonotonicCounter) Read() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	value, mac, ok, err := c.store.LoadCounter(c.id)
	if err != nil {
		return 0, fmt.Errorf("sgx: read counter %q: %w", c.id, err)
	}
	if !ok {
		return 0, fmt.Errorf("%w: counter %q deleted from store", ErrCounterTampered, c.id)
	}
	if !hmac.Equal(mac[:], c.mac(value)) {
		return 0, fmt.Errorf("%w: counter %q", ErrCounterTampered, c.id)
	}
	if value < c.value {
		return 0, fmt.Errorf("%w: store has %d, observed %d", ErrCounterRegressed, value, c.value)
	}
	c.value = value
	return value, nil
}

// Increment advances the counter by one, persisting the new
// authenticated value before returning it.
func (c *MonotonicCounter) Increment() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.value == math.MaxUint64 {
		return 0, fmt.Errorf("%w: counter %q at %d", ErrCounterWrap, c.id, c.value)
	}
	next := c.value + 1
	if err := c.store.StoreCounter(c.id, next, c.macArr(next)); err != nil {
		return 0, fmt.Errorf("sgx: store counter %q: %w", c.id, err)
	}
	c.value = next
	return next, nil
}

func (c *MonotonicCounter) mac(value uint64) []byte {
	h := hmac.New(sha256.New, c.key[:])
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], value)
	h.Write(buf[:])
	return h.Sum(nil)
}

func (c *MonotonicCounter) macArr(value uint64) [32]byte {
	var out [32]byte
	copy(out[:], c.mac(value))
	return out
}

// counterKey derives the per-counter MAC key from the platform secret,
// like SealingKey derives seal keys (EGETKEY with a distinct key name).
func counterKey(secret PlatformSecret, id string) [32]byte {
	h := hmac.New(sha256.New, secret[:])
	h.Write([]byte("sgx-monotonic-counter-v1"))
	h.Write([]byte(id))
	var key [32]byte
	copy(key[:], h.Sum(nil))
	return key
}
