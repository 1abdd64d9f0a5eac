package persist

import (
	"errors"
	"fmt"

	"montsalvat/internal/shim"
)

// ErrImmutableState rejects journaled mutations against a write-once
// state (the paldb index): it changes only by rebuild, never in place.
var ErrImmutableState = errors.New("persist: state is write-once; rebuild and checkpoint instead of journaling")

// PalDBState makes a write-once paldb store durable. The store's
// canonical form already is a single untrusted file (built by
// paldb.NewWriter, served by paldb.Open), so the adapter checkpoints
// the file bytes — sealed, like every checkpoint payload — and recovery
// rewrites the file before readers re-open it. There is no journal
// surface: paldb is immutable after Close, so Apply fails with
// ErrImmutableState and rebuilds are persisted by the next checkpoint.
type PalDBState struct {
	name string
	fs   shim.FS
	file string
}

// NewPalDBState returns an adapter named name for the paldb store file
// on fs. The file may not exist yet (an absent store snapshots empty).
func NewPalDBState(name string, fs shim.FS, file string) *PalDBState {
	return &PalDBState{name: name, fs: fs, file: file}
}

// Name implements State.
func (p *PalDBState) Name() string { return p.name }

// Snapshot implements State: the raw store file (empty when absent).
func (p *PalDBState) Snapshot() ([]byte, error) {
	size, err := p.fs.Size(p.file)
	if err != nil {
		return nil, nil // no store built yet
	}
	buf, err := p.fs.ReadAt(p.file, 0, int(size))
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot %s: %w", p.name, err)
	}
	return buf, nil
}

// Restore implements State: the file is rewritten from the snapshot
// (or removed, for an empty snapshot).
func (p *PalDBState) Restore(data []byte) error {
	_ = p.fs.Remove(p.file)
	if len(data) == 0 {
		return nil
	}
	if err := p.fs.WriteAt(p.file, 0, data); err != nil {
		return fmt.Errorf("persist: restore %s: %w", p.name, err)
	}
	return nil
}

// Apply implements State: every journaled record is refused.
func (p *PalDBState) Apply(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %s record for %q", ErrImmutableState, p.name, recs[0].Key)
}
