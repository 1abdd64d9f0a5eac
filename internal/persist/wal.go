package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// WAL on-disk format. The log is a sequence of segment files in
// untrusted storage (shim.FS), named dir + "wal-%08d.seg" by segment
// sequence number:
//
//	[8-byte magic "MSVWAL1\n"]
//	[4-byte BE len][sealed segment header]
//	[4-byte BE len][8-byte BE lsn][sealed record] ...
//
// The segment header (version, seq, epoch, baseLSN) is sealed with AAD
// binding the sequence number, so the host cannot rename segments into
// different positions. Each record is sealed with AAD binding (seq,
// lsn); the LSN also rides in plaintext framing so replay can skip
// records below the checkpoint watermark without paying an unseal.
// A frame's sealed payload is a batch of one or more consecutive
// records (batchRecordVersion): the framing LSN and AAD bind the first
// LSN, and the watermark skip stays sound because checkpoints and
// commits serialise on the manager mutex — the watermark always lands
// on a frame boundary.
// The epoch field is the monotonic-counter value when the segment was
// opened — the rollback stamp: a segment from before the latest
// checkpoint can only legitimately contain LSNs at or below the
// checkpoint watermark (see replayLog).
//
// Torn writes are detected by framing: a record whose length prefix or
// body extends past the end of the final segment is an interrupted
// append, and replay stops there (prefix consistency). The same damage
// anywhere else — or a present-but-unopenable record — is corruption
// and recovery fails with a typed error rather than silently dropping
// committed data.

// WAL and recovery errors.
var (
	// ErrCorruptSegment reports a segment with a damaged header or
	// structurally invalid framing (outside the torn final tail).
	ErrCorruptSegment = errors.New("persist: corrupt WAL segment")
	// ErrCorruptRecord reports a fully-present record that fails
	// authenticated decryption or plaintext decoding.
	ErrCorruptRecord = errors.New("persist: corrupt WAL record")
	// ErrStaleCounter reports a sealed blob stamped with an older
	// monotonic-counter epoch than live state requires — a rollback or
	// replay of old log segments.
	ErrStaleCounter = errors.New("persist: stale counter stamp")
	// ErrDuplicateLSN reports a record whose LSN was already replayed —
	// a duplicated or re-injected log entry.
	ErrDuplicateLSN = errors.New("persist: duplicate LSN")
	// ErrRollback reports recovery finding only checkpoints older than
	// the monotonic counter demands — the classic rollback attack.
	ErrRollback = errors.New("persist: rollback detected")
	// ErrCorruptCheckpoint reports the counter-matching checkpoint
	// failing to unseal.
	ErrCorruptCheckpoint = errors.New("persist: corrupt checkpoint")
)

const (
	walMagic    = "MSVWAL1\n"
	segVersion  = 1
	walHdrAAD   = "msv/wal-hdr/1"
	walRecAAD   = "msv/wal-rec/1"
	recFrameLen = 4 + 8 // length prefix + plaintext LSN
)

// segHeader is the sealed per-segment header.
type segHeader struct {
	seq     uint64 // segment sequence number (also in the file name)
	epoch   uint64 // monotonic-counter value when the segment was opened
	baseLSN uint64 // first LSN this segment may contain
}

func encodeSegHeader(h segHeader) []byte {
	buf := make([]byte, 0, 1+8*3)
	buf = append(buf, segVersion)
	buf = appendU64(buf, h.seq)
	buf = appendU64(buf, h.epoch)
	buf = appendU64(buf, h.baseLSN)
	return buf
}

func decodeSegHeader(buf []byte) (segHeader, error) {
	var h segHeader
	if len(buf) != 1+8*3 {
		return h, fmt.Errorf("%w: header length %d", ErrCorruptSegment, len(buf))
	}
	if buf[0] != segVersion {
		return h, fmt.Errorf("%w: header version %d", ErrCorruptSegment, buf[0])
	}
	h.seq = binary.BigEndian.Uint64(buf[1:])
	h.epoch = binary.BigEndian.Uint64(buf[9:])
	h.baseLSN = binary.BigEndian.Uint64(buf[17:])
	return h, nil
}

func segHeaderAAD(seq uint64) []byte {
	return appendU64([]byte(walHdrAAD), seq)
}

func recordAAD(seq, lsn uint64) []byte {
	return appendU64(appendU64([]byte(walRecAAD), seq), lsn)
}

func (m *Manager) segmentName(seq uint64) string {
	return fmt.Sprintf("%swal-%08d.seg", m.dir, seq)
}

// listSegments returns the sequence numbers of existing segments,
// sorted ascending.
func (m *Manager) listSegments() ([]uint64, error) {
	names, err := m.fs.List()
	if err != nil {
		return nil, fmt.Errorf("persist: list segments: %w", err)
	}
	var seqs []uint64
	for _, name := range names {
		if !strings.HasPrefix(name, m.dir+"wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		var seq uint64
		numPart := strings.TrimSuffix(strings.TrimPrefix(name, m.dir+"wal-"), ".seg")
		if _, err := fmt.Sscanf(numPart, "%d", &seq); err != nil {
			continue // foreign file in our namespace; not ours to judge
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// openSegment creates segment seq with the given epoch and base LSN,
// writing the magic and sealed header in one append.
func (m *Manager) openSegment(seq, epoch, baseLSN uint64) error {
	hdr, err := m.seal(encodeSegHeader(segHeader{seq: seq, epoch: epoch, baseLSN: baseLSN}), segHeaderAAD(seq))
	if err != nil {
		return err
	}
	buf := make([]byte, 0, len(walMagic)+4+len(hdr))
	buf = append(buf, walMagic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(hdr)))
	buf = append(buf, hdr...)
	name := m.segmentName(seq)
	if _, err := m.fs.Append(name, buf); err != nil {
		return fmt.Errorf("persist: open segment %d: %w", seq, err)
	}
	m.curSeq = seq
	m.curName = name
	m.curSize = int64(len(buf))
	return nil
}

// appendFrame seals a group of consecutive records into one frame and
// appends it to the current segment — the only way records reach the
// log. The frame's plaintext LSN is the group's first LSN; the AAD
// binds (seq, first LSN) so the host can neither move nor reorder the
// frame. Honours the seal and append crash points.
func (m *Manager) appendFrame(recs []Record) error {
	sealed, err := m.seal(EncodeWALBatch(recs), recordAAD(m.curSeq, recs[0].LSN))
	if err != nil {
		return err
	}
	if !fitsLen(len(sealed)) {
		return fmt.Errorf("persist: frame too large: %d bytes", len(sealed))
	}
	if err := m.injector.hit(CrashAfterSeal); err != nil {
		// Sealed but never written: the whole group is lost, which is
		// fine — no member was acked.
		return err
	}
	frame := make([]byte, 0, recFrameLen+len(sealed))
	frame = binary.BigEndian.AppendUint32(frame, uint32(8+len(sealed)))
	frame = appendU64(frame, recs[0].LSN)
	frame = append(frame, sealed...)
	if err := m.injector.hit(CrashMidAppend); err != nil {
		// Simulate the torn write the crash would leave behind: the
		// frame is cut mid-payload before the "process" dies.
		_, _ = m.fs.Append(m.curName, frame[:recFrameLen+len(sealed)/2])
		return err
	}
	if _, err := m.fs.Append(m.curName, frame); err != nil {
		return fmt.Errorf("persist: append frame: %w", err)
	}
	m.curSize += int64(len(frame))
	return nil
}

// segRecord is one framed record as read back from a segment.
type segRecord struct {
	lsn    uint64
	sealed []byte
}

// readSegment parses one segment file. final marks the last segment of
// the log: only there is a torn tail legal (reported via torn, with the
// records before it intact). Sealed record payloads are returned
// unopened so replay can skip below-watermark records cheaply.
func (m *Manager) readSegment(seq uint64, final bool) (hdr segHeader, recs []segRecord, torn bool, err error) {
	name := m.segmentName(seq)
	size, err := m.fs.Size(name)
	if err != nil {
		return hdr, nil, false, fmt.Errorf("%w: segment %d unreadable: %v", ErrCorruptSegment, seq, err)
	}
	buf, err := m.fs.ReadAt(name, 0, int(size))
	if err != nil {
		return hdr, nil, false, fmt.Errorf("%w: segment %d unreadable: %v", ErrCorruptSegment, seq, err)
	}
	if len(buf) < len(walMagic)+4 || string(buf[:len(walMagic)]) != walMagic {
		return hdr, nil, false, fmt.Errorf("%w: segment %d bad magic", ErrCorruptSegment, seq)
	}
	rest := buf[len(walMagic):]
	hdrLen := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if hdrLen <= 0 || hdrLen > len(rest) {
		return hdr, nil, false, fmt.Errorf("%w: segment %d header framing", ErrCorruptSegment, seq)
	}
	plain, err := m.unseal(rest[:hdrLen], segHeaderAAD(seq))
	if err != nil {
		return hdr, nil, false, fmt.Errorf("%w: segment %d header: %v", ErrCorruptSegment, seq, err)
	}
	hdr, err = decodeSegHeader(plain)
	if err != nil {
		return hdr, nil, false, err
	}
	if hdr.seq != seq {
		return hdr, nil, false, fmt.Errorf("%w: segment %d header claims seq %d", ErrCorruptSegment, seq, hdr.seq)
	}
	rest = rest[hdrLen:]

	for len(rest) > 0 {
		if len(rest) < 4 {
			if final {
				return hdr, recs, true, nil // torn length prefix
			}
			return hdr, nil, false, fmt.Errorf("%w: segment %d truncated mid-frame", ErrCorruptSegment, seq)
		}
		frameLen := int(binary.BigEndian.Uint32(rest))
		if frameLen < 8 {
			return hdr, nil, false, fmt.Errorf("%w: segment %d frame length %d", ErrCorruptSegment, seq, frameLen)
		}
		if frameLen > len(rest)-4 {
			if final {
				return hdr, recs, true, nil // torn record body
			}
			return hdr, nil, false, fmt.Errorf("%w: segment %d truncated record", ErrCorruptSegment, seq)
		}
		frame := rest[4 : 4+frameLen]
		recs = append(recs, segRecord{
			lsn:    binary.BigEndian.Uint64(frame[:8]),
			sealed: frame[8:],
		})
		rest = rest[4+frameLen:]
	}
	return hdr, recs, false, nil
}

// replayLog walks every segment, validates stamps and LSN discipline,
// and applies the records above the checkpoint watermark one segment at
// a time: apply receives a segment's validated records (never an empty
// slice) once the whole segment has been checked. It returns the number
// of records replayed, the highest LSN seen, and whether the final
// segment ended in a torn record.
func (m *Manager) replayLog(counter, watermark uint64, apply func([]Record) error) (replayed int, lastLSN uint64, torn bool, err error) {
	seqs, err := m.listSegments()
	if err != nil {
		return 0, 0, false, err
	}
	lastLSN = watermark
	for i, seq := range seqs {
		final := i == len(seqs)-1
		hdr, recs, segTorn, err := m.readSegment(seq, final)
		if err != nil {
			return replayed, lastLSN, false, err
		}
		if hdr.epoch > counter {
			return replayed, lastLSN, false, fmt.Errorf(
				"%w: segment %d epoch %d ahead of counter %d", ErrStaleCounter, seq, hdr.epoch, counter)
		}
		stale := hdr.epoch < counter
		var segRecs []Record
		for _, sr := range recs {
			if sr.lsn <= watermark {
				continue // captured by the checkpoint; normal overlap
			}
			if stale {
				// A pre-checkpoint segment can only hold LSNs the
				// checkpoint covers; anything above the watermark is a
				// replayed old segment posing as fresh log.
				return replayed, lastLSN, false, fmt.Errorf(
					"%w: segment %d epoch %d carries LSN %d past watermark %d",
					ErrStaleCounter, seq, hdr.epoch, sr.lsn, watermark)
			}
			if sr.lsn <= lastLSN {
				return replayed, lastLSN, false, fmt.Errorf(
					"%w: LSN %d after %d", ErrDuplicateLSN, sr.lsn, lastLSN)
			}
			if sr.lsn != lastLSN+1 {
				return replayed, lastLSN, false, fmt.Errorf(
					"%w: segment %d LSN gap %d -> %d", ErrCorruptSegment, seq, lastLSN, sr.lsn)
			}
			plain, err := m.unseal(sr.sealed, recordAAD(seq, sr.lsn))
			if err != nil {
				return replayed, lastLSN, false, fmt.Errorf(
					"%w: segment %d LSN %d: %v", ErrCorruptRecord, seq, sr.lsn, err)
			}
			subs, err := DecodeWALBatch(plain)
			if err != nil {
				return replayed, lastLSN, false, fmt.Errorf(
					"%w: segment %d LSN %d: %v", ErrCorruptRecord, seq, sr.lsn, err)
			}
			if subs[0].LSN != sr.lsn {
				return replayed, lastLSN, false, fmt.Errorf(
					"%w: frame LSN %d, record LSN %d", ErrCorruptRecord, sr.lsn, subs[0].LSN)
			}
			for _, rec := range subs {
				// Batch members must be consecutive from the frame LSN;
				// a batch straddling the watermark is impossible
				// (checkpoints and batch appends serialise on m.mu, so
				// the watermark always lands on a batch boundary).
				if rec.LSN != lastLSN+1 {
					return replayed, lastLSN, false, fmt.Errorf(
						"%w: segment %d batch LSN %d after %d", ErrCorruptRecord, seq, rec.LSN, lastLSN)
				}
				segRecs = append(segRecs, rec)
				lastLSN = rec.LSN
			}
		}
		if len(segRecs) > 0 {
			if err := apply(segRecs); err != nil {
				return replayed, lastLSN, false, err
			}
			replayed += len(segRecs)
		}
		torn = torn || segTorn
	}
	return replayed, lastLSN, torn, nil
}

// truncateSegments removes segments that a checkpoint has made
// redundant: every segment whose sequence number is below keepSeq.
// Honours the mid-truncate crash point after the first removal.
func (m *Manager) truncateSegments(keepSeq uint64) error {
	seqs, err := m.listSegments()
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq >= keepSeq {
			continue
		}
		if err := m.fs.Remove(m.segmentName(seq)); err != nil {
			return fmt.Errorf("persist: truncate segment %d: %w", seq, err)
		}
		// Crash with part of the cleanup done: recovery must tolerate
		// (and finish) a half-truncated log.
		if err := m.injector.hit(CrashMidTruncate); err != nil {
			return err
		}
	}
	return nil
}
