package persist

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Checkpoint on-disk format. One file per checkpoint, named
// dir + "ckpt-%016x.ckp" by counter stamp:
//
//	[8-byte magic "MSVCKP1\n"]
//	[4-byte BE len][sealed checkpoint payload]
//
// The payload (version, stamp, watermark, per-state snapshots) is
// sealed with AAD binding the stamp, so a blob cannot be renamed into a
// different counter position. The commit protocol orders:
//
//	1. snapshot registered states, seal with stamp = counter + 1 (a
//	   WorldKV flushes the world's batch queues before it reads the
//	   store, so queued relay calls land in the snapshot)
//	2. write the checkpoint file
//	3. increment the monotonic counter  ← the commit point
//	4. delete older checkpoints, truncate covered segments
//	5. rotate to a fresh segment at the new epoch
//
// A crash before 3 leaves a checkpoint stamped ahead of the counter:
// recovery discards it (incomplete commit) and uses the predecessor
// plus the untruncated WAL tail. A crash after 3 leaves stale files:
// recovery ignores them. Only a checkpoint whose stamp equals the live
// counter is acceptable; a best-available stamp below the counter means
// the matching blob was destroyed or replaced — ErrRollback.

const (
	ckpMagic   = "MSVCKP1\n"
	ckpVersion = 1
	ckpAADTag  = "msv/ckpt/1"
)

type checkpoint struct {
	stamp     uint64 // monotonic-counter value this blob commits to
	watermark uint64 // highest LSN the snapshots capture
	states    map[string][]byte
}

func encodeCheckpoint(c checkpoint) []byte {
	names := make([]string, 0, len(c.states))
	for name := range c.states {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := []byte{ckpVersion}
	buf = appendU64(buf, c.stamp)
	buf = appendU64(buf, c.watermark)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		buf = binary.AppendUvarint(buf, uint64(len(c.states[name])))
		buf = append(buf, c.states[name]...)
	}
	return buf
}

func decodeCheckpoint(buf []byte) (checkpoint, error) {
	var c checkpoint
	if len(buf) < 1+16 || buf[0] != ckpVersion {
		return c, fmt.Errorf("%w: payload header", ErrCorruptCheckpoint)
	}
	var err error
	rest := buf[1:]
	if c.stamp, rest, err = readU64(rest); err != nil {
		return c, fmt.Errorf("%w: stamp", ErrCorruptCheckpoint)
	}
	if c.watermark, rest, err = readU64(rest); err != nil {
		return c, fmt.Errorf("%w: watermark", ErrCorruptCheckpoint)
	}
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return c, fmt.Errorf("%w: state count", ErrCorruptCheckpoint)
	}
	rest = rest[n:]
	// Every state takes at least its two length prefixes, so a count
	// past the remaining bytes is corrupt — checked before it sizes the
	// map.
	if count > uint64(len(rest)) {
		return c, fmt.Errorf("%w: state count %d", ErrCorruptCheckpoint, count)
	}
	c.states = make(map[string][]byte, count)
	for i := uint64(0); i < count; i++ {
		name, r, err := decodeField(rest, "state name")
		if err != nil {
			return c, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
		}
		// State snapshots may exceed the per-record field bound; they are
		// length-prefixed the same way but checked against the buffer.
		sz, w := binary.Uvarint(r)
		if w <= 0 || uint64(len(r)-w) < sz {
			return c, fmt.Errorf("%w: state %q payload", ErrCorruptCheckpoint, name)
		}
		c.states[string(name)] = append([]byte(nil), r[w:w+int(sz)]...)
		rest = r[w+int(sz):]
	}
	if len(rest) != 0 {
		return c, fmt.Errorf("%w: trailing bytes", ErrCorruptCheckpoint)
	}
	return c, nil
}

func ckpAAD(stamp uint64) []byte {
	return appendU64([]byte(ckpAADTag), stamp)
}

func (m *Manager) checkpointName(stamp uint64) string {
	return fmt.Sprintf("%sckpt-%016x.ckp", m.dir, stamp)
}

// listCheckpoints returns the stamps of existing checkpoint files,
// sorted ascending. Stamps come from file names — untrusted hints,
// verified by the sealed payload's AAD when a blob is opened.
func (m *Manager) listCheckpoints() ([]uint64, error) {
	names, err := m.fs.List()
	if err != nil {
		return nil, fmt.Errorf("persist: list checkpoints: %w", err)
	}
	var stamps []uint64
	for _, name := range names {
		if !strings.HasPrefix(name, m.dir+"ckpt-") || !strings.HasSuffix(name, ".ckp") {
			continue
		}
		var stamp uint64
		numPart := strings.TrimSuffix(strings.TrimPrefix(name, m.dir+"ckpt-"), ".ckp")
		if _, err := fmt.Sscanf(numPart, "%x", &stamp); err != nil {
			continue
		}
		stamps = append(stamps, stamp)
	}
	sort.Slice(stamps, func(i, j int) bool { return stamps[i] < stamps[j] })
	return stamps, nil
}

// writeCheckpoint seals and writes the blob for stamp, honouring the
// mid-checkpoint crash point by leaving a torn file.
func (m *Manager) writeCheckpoint(c checkpoint) error {
	sealed, err := m.seal(encodeCheckpoint(c), ckpAAD(c.stamp))
	if err != nil {
		return err
	}
	if !fitsLen(len(sealed)) {
		return fmt.Errorf("persist: checkpoint too large: %d bytes", len(sealed))
	}
	buf := make([]byte, 0, len(ckpMagic)+4+len(sealed))
	buf = append(buf, ckpMagic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(sealed)))
	buf = append(buf, sealed...)
	name := m.checkpointName(c.stamp)
	_ = m.fs.Remove(name) // a torn predecessor from a crashed commit at this stamp
	if err := m.injector.hit(CrashMidCheckpoint); err != nil {
		_, _ = m.fs.Append(name, buf[:len(buf)/2]) // the torn file the crash leaves
		return err
	}
	if _, err := m.fs.Append(name, buf); err != nil {
		return fmt.Errorf("persist: write checkpoint %d: %w", c.stamp, err)
	}
	return nil
}

// readCheckpoint opens the blob for stamp.
func (m *Manager) readCheckpoint(stamp uint64) (checkpoint, error) {
	name := m.checkpointName(stamp)
	size, err := m.fs.Size(name)
	if err != nil {
		return checkpoint{}, fmt.Errorf("%w: stamp %d unreadable: %v", ErrCorruptCheckpoint, stamp, err)
	}
	buf, err := m.fs.ReadAt(name, 0, int(size))
	if err != nil {
		return checkpoint{}, fmt.Errorf("%w: stamp %d unreadable: %v", ErrCorruptCheckpoint, stamp, err)
	}
	if len(buf) < len(ckpMagic)+4 || string(buf[:len(ckpMagic)]) != ckpMagic {
		return checkpoint{}, fmt.Errorf("%w: stamp %d bad magic", ErrCorruptCheckpoint, stamp)
	}
	rest := buf[len(ckpMagic):]
	n := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if n <= 0 || n > len(rest) {
		return checkpoint{}, fmt.Errorf("%w: stamp %d framing", ErrCorruptCheckpoint, stamp)
	}
	plain, err := m.unseal(rest[:n], ckpAAD(stamp))
	if err != nil {
		return checkpoint{}, fmt.Errorf("%w: stamp %d: %v", ErrCorruptCheckpoint, stamp, err)
	}
	c, err := decodeCheckpoint(plain)
	if err != nil {
		return checkpoint{}, err
	}
	if c.stamp != stamp {
		return checkpoint{}, fmt.Errorf("%w: file claims %d, payload %d", ErrCorruptCheckpoint, stamp, c.stamp)
	}
	return c, nil
}

// dropCheckpoints removes every checkpoint file except keep.
func (m *Manager) dropCheckpoints(keep uint64) error {
	stamps, err := m.listCheckpoints()
	if err != nil {
		return err
	}
	for _, stamp := range stamps {
		if stamp == keep {
			continue
		}
		if err := m.fs.Remove(m.checkpointName(stamp)); err != nil {
			return fmt.Errorf("persist: drop checkpoint %d: %w", stamp, err)
		}
	}
	return nil
}
