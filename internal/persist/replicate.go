package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"montsalvat/internal/shim"
)

// Replication: checkpoint + WAL-tail shipping.
//
// A primary Manager exposes its durable directory as a stream of byte
// deltas (ReplicaDelta); a follower applies them to its own shim.FS
// (ApplyDelta) and ends up with a bit-identical copy of the primary's
// sealed checkpoints, WAL segments, and — when the counter store lives
// under the same Dir (FSCounterStore with a prefix inside it) — the
// monotonic-counter file. Promotion is then just persist.Recover over
// the replicated FS on an enclave sharing the primary's MRSIGNER.
//
// The delta is computed under the manager's mutex, so every shipment is
// a consistent cut: a record never arrives without the segment header
// before it, and a checkpoint never arrives ahead of the counter state
// that commits it. File classes are exploited for minimal traffic:
// WAL segments are append-only (ship the tail), checkpoints are
// immutable once written (ship when absent), and anything else under
// the directory — the counter file — is small and mutable in place
// (ship whole every round).
//
// Shipping is transport-agnostic: the fabric layer moves encoded deltas
// over mutually attested AES-GCM peer channels, but any ordered,
// lossless byte pipe works. Nothing in a delta is plaintext state —
// records and checkpoints are sealed blobs; only framing and names are
// visible — so replication does not widen the trust boundary.

// ErrNoDelta reports a ReplicaDelta call against a manager that has not
// recovered yet: the directory contents are not a meaningful cut until
// recovery establishes the log position.
var ErrNoDelta = errors.New("persist: manager not recovered; no delta")

// Chunk is one span of file bytes to write at the follower.
type Chunk struct {
	// Name is the full file name (including the manager's Dir prefix).
	Name string
	// Off is the write offset; Data the bytes starting there.
	Off  int64
	Data []byte
}

// Delta is one replication shipment: applying Remove then Chunks to a
// follower that honestly reported `have` makes its directory
// bit-identical to the primary's at the capture point.
type Delta struct {
	// Stamp is the primary's checkpoint epoch (monotonic-counter value)
	// at capture; LastLSN the highest appended LSN. Followers track
	// these for observability and promotion-staleness checks.
	Stamp   uint64
	LastLSN uint64
	// Chunks are the byte spans to write, in apply order.
	Chunks []Chunk
	// Remove names follower files the primary no longer has (truncated
	// WAL segments, superseded checkpoints). Processed before Chunks.
	Remove []string
}

// Bytes returns the payload size of the delta's chunks.
func (d Delta) Bytes() int {
	n := 0
	for _, c := range d.Chunks {
		n += len(c.Data)
	}
	return n
}

// Empty reports a delta that changes nothing.
func (d Delta) Empty() bool { return len(d.Chunks) == 0 && len(d.Remove) == 0 }

// ReplicaDelta computes the shipment that brings a follower holding
// `have` (file name → byte size, as previously applied) up to this
// manager's current durable state. The computation runs under the
// manager's mutex — a consistent cut against concurrent Appends and
// Checkpoints. The returned chunks alias freshly read buffers and are
// safe to retain.
//
// The follower map is trusted only for traffic reduction, never for
// integrity: a follower lying about its state ends up with files that
// fail authenticated unsealing at promotion, not with silently wrong
// state.
func (m *Manager) ReplicaDelta(have map[string]int64) (Delta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.recovered {
		return Delta{}, ErrNoDelta
	}
	var d Delta
	d.Stamp = m.epoch
	if m.nextLSN > 0 {
		d.LastLSN = m.nextLSN - 1
	}

	names, err := m.fs.List()
	if err != nil {
		return Delta{}, fmt.Errorf("persist: delta list: %w", err)
	}
	sort.Strings(names)
	present := make(map[string]bool, len(names))
	for _, name := range names {
		if !strings.HasPrefix(name, m.dir) {
			continue
		}
		present[name] = true
		size, err := m.fs.Size(name)
		if err != nil {
			return Delta{}, fmt.Errorf("persist: delta size %s: %w", name, err)
		}
		from := have[name]
		switch {
		case m.appendOnly(name):
			// Tail-ship; a follower claiming more than we have (a fork,
			// or damage) is reset and re-shipped whole.
			if from > size {
				d.Remove = append(d.Remove, name)
				from = 0
			}
			if from == size {
				continue
			}
			data, err := m.fs.ReadAt(name, from, int(size-from))
			if err != nil {
				return Delta{}, fmt.Errorf("persist: delta read %s: %w", name, err)
			}
			d.Chunks = append(d.Chunks, Chunk{Name: name, Off: from, Data: data})
		case m.immutable(name):
			// Checkpoints never change after their write completes; ship
			// only when absent or size-mismatched (interrupted apply).
			if from == size {
				continue
			}
			if from > 0 {
				d.Remove = append(d.Remove, name)
			}
			data, err := m.fs.ReadAt(name, 0, int(size))
			if err != nil {
				return Delta{}, fmt.Errorf("persist: delta read %s: %w", name, err)
			}
			d.Chunks = append(d.Chunks, Chunk{Name: name, Off: 0, Data: data})
		default:
			// Mutable in place (the monotonic-counter file): size alone
			// cannot prove freshness, so ship whole every round. These
			// files are tens of bytes.
			if from > size {
				d.Remove = append(d.Remove, name)
			}
			data, err := m.fs.ReadAt(name, 0, int(size))
			if err != nil {
				return Delta{}, fmt.Errorf("persist: delta read %s: %w", name, err)
			}
			d.Chunks = append(d.Chunks, Chunk{Name: name, Off: 0, Data: data})
		}
	}
	// Files the follower has that we no longer do: truncated segments,
	// superseded checkpoints.
	removed := make([]string, 0)
	for name := range have {
		if strings.HasPrefix(name, m.dir) && !present[name] {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	d.Remove = append(d.Remove, removed...)

	// Counter-class files apply last: a crash mid-apply must not leave
	// the follower's counter ahead of the checkpoints that justify it
	// (that would read as rollback at promotion, not as a short ship).
	sort.SliceStable(d.Chunks, func(i, j int) bool {
		ci, cj := m.shipClass(d.Chunks[i].Name), m.shipClass(d.Chunks[j].Name)
		return ci < cj
	})
	return d, nil
}

// appendOnly reports a WAL segment file (grows by Append, never
// rewritten).
func (m *Manager) appendOnly(name string) bool {
	return strings.HasPrefix(name, m.dir+"wal-") && strings.HasSuffix(name, ".seg")
}

// immutable reports a checkpoint file (written once, then only ever
// removed).
func (m *Manager) immutable(name string) bool {
	return strings.HasPrefix(name, m.dir+"ckpt-") && strings.HasSuffix(name, ".ckp")
}

// shipClass orders chunk application: log and checkpoint bytes first,
// in-place mutable files (the counter) last.
func (m *Manager) shipClass(name string) int {
	if m.appendOnly(name) || m.immutable(name) {
		return 0
	}
	return 1
}

// ApplyDelta applies one shipment to a follower filesystem: removals
// first, then chunks in order. Idempotent for a re-delivered delta
// whose writes all landed; a torn apply is repaired by the next
// delta (size mismatches re-ship whole files). A file already gone is
// removed; any other failed removal fails the apply, since a file the
// primary re-ships from offset 0 would otherwise keep a stale tail.
func ApplyDelta(fs shim.FS, d Delta) error {
	for _, name := range d.Remove {
		if err := fs.Remove(name); err != nil && !errors.Is(err, shim.ErrNotFound) {
			return fmt.Errorf("persist: apply remove %s: %w", name, err)
		}
	}
	for _, c := range d.Chunks {
		if err := fs.WriteAt(c.Name, c.Off, c.Data); err != nil {
			return fmt.Errorf("persist: apply %s@%d: %w", c.Name, c.Off, err)
		}
	}
	return nil
}

// HaveMap snapshots a filesystem's file sizes under dir — what a
// follower reports to the primary before the first shipment.
func HaveMap(fs shim.FS, dir string) (map[string]int64, error) {
	names, err := fs.List()
	if err != nil {
		return nil, err
	}
	have := make(map[string]int64)
	for _, name := range names {
		if !strings.HasPrefix(name, dir) {
			continue
		}
		size, err := fs.Size(name)
		if err != nil {
			return nil, err
		}
		have[name] = size
	}
	return have, nil
}

// UpdateHave folds an applied delta into a follower's have map, so the
// next ReplicaDelta call ships only what changed since.
func UpdateHave(have map[string]int64, d Delta) {
	for _, name := range d.Remove {
		delete(have, name)
	}
	for _, c := range d.Chunks {
		if end := c.Off + int64(len(c.Data)); end > have[c.Name] {
			have[c.Name] = end
		}
	}
}

// ---- wire encoding ----------------------------------------------------

// Deltas ship over attested peer channels as one binary blob:
//
//	[1-byte version][stamp][lastLSN]
//	[uvarint nRemove]{[uvarint len][name]}...
//	[uvarint nChunks]{[uvarint len][name][off][uvarint dataLen][data]}...

const deltaVersion = 1

// ErrCorruptDelta reports a delta blob that fails structural decoding.
var ErrCorruptDelta = errors.New("persist: corrupt replication delta")

// DeltaSize returns the exact number of bytes AppendDelta adds, so a
// shipper can announce the blob's length and encode it straight into its
// frame.
func DeltaSize(d Delta) int {
	n := 1 + 8 + 8 + uvarintLen(uint64(len(d.Remove))) + uvarintLen(uint64(len(d.Chunks)))
	for _, name := range d.Remove {
		n += uvarintLen(uint64(len(name))) + len(name)
	}
	for _, c := range d.Chunks {
		n += uvarintLen(uint64(len(c.Name))) + len(c.Name) + 8 + uvarintLen(uint64(len(c.Data))) + len(c.Data)
	}
	return n
}

// AppendDelta serialises a delta onto buf.
func AppendDelta(buf []byte, d Delta) []byte {
	buf = append(buf, deltaVersion)
	buf = appendU64(buf, d.Stamp)
	buf = appendU64(buf, d.LastLSN)
	buf = binary.AppendUvarint(buf, uint64(len(d.Remove)))
	for _, name := range d.Remove {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.Chunks)))
	for _, c := range d.Chunks {
		buf = binary.AppendUvarint(buf, uint64(len(c.Name)))
		buf = append(buf, c.Name...)
		buf = appendU64(buf, uint64(c.Off))
		buf = binary.AppendUvarint(buf, uint64(len(c.Data)))
		buf = append(buf, c.Data...)
	}
	return buf
}

// DecodeDelta parses a shipped delta.
func DecodeDelta(buf []byte) (Delta, error) {
	var d Delta
	if len(buf) < 1+16 || buf[0] != deltaVersion {
		return d, fmt.Errorf("%w: header", ErrCorruptDelta)
	}
	var err error
	rest := buf[1:]
	if d.Stamp, rest, err = readU64(rest); err != nil {
		return d, fmt.Errorf("%w: stamp", ErrCorruptDelta)
	}
	if d.LastLSN, rest, err = readU64(rest); err != nil {
		return d, fmt.Errorf("%w: last LSN", ErrCorruptDelta)
	}
	readStr := func() (string, error) {
		n, used := binary.Uvarint(rest)
		if used <= 0 || uint64(len(rest)-used) < n {
			return "", fmt.Errorf("%w: string", ErrCorruptDelta)
		}
		s := string(rest[used : used+int(n)])
		rest = rest[used+int(n):]
		return s, nil
	}
	nRemove, used := binary.Uvarint(rest)
	if used <= 0 {
		return d, fmt.Errorf("%w: remove count", ErrCorruptDelta)
	}
	rest = rest[used:]
	for i := uint64(0); i < nRemove; i++ {
		name, err := readStr()
		if err != nil {
			return d, err
		}
		d.Remove = append(d.Remove, name)
	}
	nChunks, used := binary.Uvarint(rest)
	if used <= 0 {
		return d, fmt.Errorf("%w: chunk count", ErrCorruptDelta)
	}
	rest = rest[used:]
	for i := uint64(0); i < nChunks; i++ {
		var c Chunk
		if c.Name, err = readStr(); err != nil {
			return d, err
		}
		var off uint64
		if off, rest, err = readU64(rest); err != nil {
			return d, fmt.Errorf("%w: offset", ErrCorruptDelta)
		}
		c.Off = int64(off)
		n, used := binary.Uvarint(rest)
		if used <= 0 || uint64(len(rest)-used) < n {
			return d, fmt.Errorf("%w: chunk data", ErrCorruptDelta)
		}
		c.Data = append([]byte(nil), rest[used:used+int(n)]...)
		rest = rest[used+int(n):]
		d.Chunks = append(d.Chunks, c)
	}
	if len(rest) != 0 {
		return d, fmt.Errorf("%w: trailing bytes", ErrCorruptDelta)
	}
	return d, nil
}
