package persist

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"

	"montsalvat/internal/shim"
)

// State is one registered piece of durable trusted state. The Manager
// snapshots it into checkpoints and replays journaled mutations into it
// during recovery. Apply must be idempotent (last-write-wins): the WAL
// tail replayed after a checkpoint may overlap mutations the snapshot
// already captured.
//
// Each method is one recovery phase, so a state whose data lives behind
// a boundary (WorldKV) runs each call as one pass over it rather than
// one crossing per key.
type State interface {
	// Name identifies the state inside checkpoints; it must be stable
	// across restarts and unique within a Manager.
	Name() string
	// Snapshot serialises the current state.
	Snapshot() ([]byte, error)
	// Restore replaces the state from a snapshot.
	Restore(data []byte) error
	// Apply replays the journaled mutations of one WAL segment that
	// belong to this state, in log order. recs is never empty.
	Apply(recs []Record) error
}

// MapState is a string→bytes map implementing State — the in-memory
// model the crash matrix and the recovery bench check against, and the
// shape demo KVStore state is mirrored through.
type MapState struct {
	name string
	mu   sync.Mutex
	m    map[string][]byte
}

// NewMapState returns an empty named map state.
func NewMapState(name string) *MapState {
	return &MapState{name: name, m: make(map[string][]byte)}
}

// Name implements State.
func (s *MapState) Name() string { return s.name }

// Put upserts a key (the mutation side; journaling is the caller's job).
func (s *MapState) Put(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), value...)
}

// Delete removes a key.
func (s *MapState) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
}

// Len returns the number of keys.
func (s *MapState) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Snapshot implements State: count, then sorted (key, value) pairs,
// each length-prefixed — deterministic so equal states snapshot equal.
func (s *MapState) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pairs := make([]kvPair, 0, len(s.m))
	for k, v := range s.m {
		pairs = append(pairs, kvPair{k, v})
	}
	return encodePairs(pairs), nil
}

// Restore implements State.
func (s *MapState) Restore(data []byte) error {
	pairs, err := decodePairs(data)
	if err != nil {
		return err
	}
	m := make(map[string][]byte, len(pairs))
	for _, p := range pairs {
		m[p.key] = append([]byte(nil), p.val...)
	}
	s.mu.Lock()
	s.m = m
	s.mu.Unlock()
	return nil
}

// Apply implements State.
func (s *MapState) Apply(recs []Record) error {
	for _, rec := range recs {
		switch rec.Op {
		case OpPut:
			s.Put(rec.Key, rec.Value)
		case OpDelete:
			s.Delete(rec.Key)
		default:
			return fmt.Errorf("%w: op %d", ErrRecordMalformed, rec.Op)
		}
	}
	return nil
}

// kvPair is one (key, value) entry of a key-value snapshot.
type kvPair struct {
	key string
	val []byte
}

// encodePairs is the snapshot encoding MapState and WorldKV share:
// uvarint count, then the pairs sorted by key, each field
// uvarint-length-prefixed. Keys must be unique; pairs is sorted in
// place.
func encodePairs(pairs []kvPair) []byte {
	slices.SortFunc(pairs, func(a, b kvPair) int { return strings.Compare(a.key, b.key) })
	size := binary.MaxVarintLen64
	for _, p := range pairs {
		size += 2*binary.MaxVarintLen64 + len(p.key) + len(p.val)
	}
	buf := binary.AppendUvarint(make([]byte, 0, size), uint64(len(pairs)))
	for _, p := range pairs {
		buf = binary.AppendUvarint(buf, uint64(len(p.key)))
		buf = append(buf, p.key...)
		buf = binary.AppendUvarint(buf, uint64(len(p.val)))
		buf = append(buf, p.val...)
	}
	return buf
}

// decodePairs parses an encodePairs snapshot, rejecting truncation and
// trailing bytes. Values alias data.
func decodePairs(data []byte) ([]kvPair, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("%w: snapshot count", ErrRecordTruncated)
	}
	data = data[n:]
	// Every pair takes at least two bytes, so a hostile count cannot
	// size the slice past the input.
	if count > uint64(len(data)/2) {
		return nil, fmt.Errorf("%w: snapshot count %d over %d bytes", ErrRecordTruncated, count, len(data))
	}
	pairs := make([]kvPair, 0, count)
	for i := uint64(0); i < count; i++ {
		key, rest, err := decodeField(data, "snapshot key")
		if err != nil {
			return nil, err
		}
		val, rest, err := decodeField(rest, "snapshot value")
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, kvPair{string(key), val})
		data = rest
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing snapshot bytes", ErrRecordMalformed, len(data))
	}
	return pairs, nil
}

// FSCounterStore persists monotonic-counter values on a shim.FS — the
// untrusted non-volatile storage of the simulated platform services.
// One small file per counter: 8-byte BE value + 32-byte MAC.
type FSCounterStore struct {
	fs     shim.FS
	prefix string
}

// NewFSCounterStore returns a counter store writing prefix + id files
// on fs.
func NewFSCounterStore(fs shim.FS, prefix string) *FSCounterStore {
	return &FSCounterStore{fs: fs, prefix: prefix}
}

func (s *FSCounterStore) file(id string) string { return s.prefix + "counter-" + id }

// LoadCounter implements sgx.CounterStore.
func (s *FSCounterStore) LoadCounter(id string) (uint64, [32]byte, bool, error) {
	var mac [32]byte
	size, err := s.fs.Size(s.file(id))
	if err != nil {
		return 0, mac, false, nil // never stored
	}
	if size != 40 {
		// A truncated or padded counter file is indistinguishable from
		// tampering; surface it as a bad MAC by returning zeroes.
		return 0, mac, true, nil
	}
	buf, err := s.fs.ReadAt(s.file(id), 0, 40)
	if err != nil {
		return 0, mac, false, fmt.Errorf("persist: read counter file: %w", err)
	}
	copy(mac[:], buf[8:])
	return binary.BigEndian.Uint64(buf[:8]), mac, true, nil
}

// StoreCounter implements sgx.CounterStore.
func (s *FSCounterStore) StoreCounter(id string, value uint64, mac [32]byte) error {
	buf := make([]byte, 40)
	binary.BigEndian.PutUint64(buf[:8], value)
	copy(buf[8:], mac[:])
	return s.fs.WriteAt(s.file(id), 0, buf)
}
