package smoke

import (
	"fmt"
	"sort"
	"sync"
)

// Ledger records writes the system acknowledged to a client. An ack is
// a durability promise, so every served check finishes by reading the
// ledger back through the system and failing on any divergence.
type Ledger struct {
	mu sync.Mutex
	m  map[string]string
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{m: make(map[string]string)}
}

// Ack records an acknowledged write. Later acks for the same key
// overwrite earlier ones: the ledger tracks the last value promised.
func (l *Ledger) Ack(key, val string) {
	l.mu.Lock()
	l.m[key] = val
	l.mu.Unlock()
}

// Len reports the number of distinct acked keys.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.m)
}

// Keys returns the acked keys in sorted order.
func (l *Ledger) Keys() []string {
	l.mu.Lock()
	keys := make([]string, 0, len(l.m))
	for k := range l.m {
		keys = append(keys, k)
	}
	l.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Verify reads every acked key back through get and fails on the first
// lost or diverged write. Keys are visited in sorted order so failures
// are deterministic.
func (l *Ledger) Verify(get func(key string) (val string, ok bool, err error)) error {
	for _, key := range l.Keys() {
		l.mu.Lock()
		want := l.m[key]
		l.mu.Unlock()
		got, ok, err := get(key)
		if err != nil {
			return fmt.Errorf("smoke: read-back of acked key %s: %w", key, err)
		}
		if !ok {
			return fmt.Errorf("smoke: acked write %s=%q lost (not found on read-back)", key, want)
		}
		if got != want {
			return fmt.Errorf("smoke: acked write %s=%q served as %q", key, want, got)
		}
	}
	return nil
}
