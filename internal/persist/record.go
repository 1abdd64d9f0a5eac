// Package persist is the durable-state subsystem: it journals
// trusted-side mutations into a sealed write-ahead log, takes periodic
// sealed checkpoints of registered trusted state, and defends both
// against rollback/fork attacks with an SGX monotonic counter stamped
// into every checkpoint and segment header (DESIGN.md §10).
//
// Sealed blobs are the only enclave state that survives teardown
// (Montsalvat §5.4): everything else — the mirror–proxy registry, the
// trusted heap, PalDB's in-enclave index — is volatile. The Manager in
// this package turns that volatile state into a restartable service:
// after a crash, Recover unseals the latest counter-valid checkpoint
// and replays the WAL tail to a prefix-consistent state.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Op identifies a journaled mutation. The subsystem is op-agnostic —
// replay hands (op, key, value) back to the registered State — but ops
// must be idempotent upserts/deletes: a checkpoint may capture a
// mutation that is also replayed from the overlapping WAL tail.
type Op uint8

// Well-known ops for KV-shaped state.
const (
	OpPut Op = 1 + iota
	OpDelete
)

// Record is one journaled mutation, in plaintext form. LSN (log
// sequence number) is assigned by the Manager: strictly sequential from
// 1, never reused, so duplicates and gaps are detectable at replay.
// State names the registered State the mutation belongs to; replay
// routes the record to that state's Apply.
type Record struct {
	LSN   uint64
	Op    Op
	State string
	Key   string
	Value []byte
}

// Record decode errors. DecodeWALBatch and the DecodeWALRecord it calls
// per member are the untrusted-input surface of the WAL (fuzzed by
// FuzzDecodeWALBatch / FuzzDecodeWALRecord); they must fail cleanly on
// arbitrary bytes.
var (
	// ErrRecordTruncated reports a record plaintext that ends mid-field.
	ErrRecordTruncated = errors.New("persist: truncated WAL record")
	// ErrRecordMalformed reports structurally invalid record bytes.
	ErrRecordMalformed = errors.New("persist: malformed WAL record")
)

const (
	recordVersion = 1
	// batchRecordVersion tags a WAL frame payload: one sealed payload
	// carrying one or more consecutive records (DESIGN.md §10). Every
	// frame the commit protocol writes is a batch; recordVersion survives
	// only as the version byte of the records inside it.
	batchRecordVersion = 2
	// maxRecordField bounds key/value lengths so a corrupted length
	// prefix cannot drive a huge allocation before the bound check.
	maxRecordField = 1 << 20
	// maxBatchRecords bounds the sub-record count of a batch frame so a
	// corrupted count cannot drive a huge allocation.
	maxBatchRecords = 1 << 16
)

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// walRecordSize is the exact encoded size of r (see appendWALRecord).
func walRecordSize(r Record) int {
	return 2 + uvarintLen(r.LSN) +
		uvarintLen(uint64(len(r.State))) + len(r.State) +
		uvarintLen(uint64(len(r.Key))) + len(r.Key) +
		uvarintLen(uint64(len(r.Value))) + len(r.Value)
}

// appendWALRecord serialises a record to its plaintext form (one member
// of a batch payload) onto buf. Layout: version u8, op u8, lsn uvarint,
// then state, key, and value, each uvarint-length-prefixed.
func appendWALRecord(buf []byte, r Record) []byte {
	buf = append(buf, recordVersion, byte(r.Op))
	buf = binary.AppendUvarint(buf, r.LSN)
	buf = binary.AppendUvarint(buf, uint64(len(r.State)))
	buf = append(buf, r.State...)
	buf = binary.AppendUvarint(buf, uint64(len(r.Key)))
	buf = append(buf, r.Key...)
	buf = binary.AppendUvarint(buf, uint64(len(r.Value)))
	return append(buf, r.Value...)
}

// DecodeWALRecord parses record plaintext produced by appendWALRecord.
// Trailing garbage after the value is rejected.
func DecodeWALRecord(buf []byte) (Record, error) {
	var r Record
	if len(buf) < 2 {
		return r, fmt.Errorf("%w: %d bytes", ErrRecordTruncated, len(buf))
	}
	if buf[0] != recordVersion {
		return r, fmt.Errorf("%w: version %d", ErrRecordMalformed, buf[0])
	}
	r.Op = Op(buf[1])
	if r.Op == 0 {
		return r, fmt.Errorf("%w: zero op", ErrRecordMalformed)
	}
	rest := buf[2:]
	lsn, n := binary.Uvarint(rest)
	if n <= 0 {
		return r, fmt.Errorf("%w: lsn", ErrRecordTruncated)
	}
	r.LSN = lsn
	rest = rest[n:]

	state, rest, err := decodeField(rest, "state")
	if err != nil {
		return r, err
	}
	r.State = string(state)
	key, rest, err := decodeField(rest, "key")
	if err != nil {
		return r, err
	}
	r.Key = string(key)
	val, rest, err := decodeField(rest, "value")
	if err != nil {
		return r, err
	}
	if len(val) > 0 {
		r.Value = append([]byte(nil), val...)
	}
	if len(rest) != 0 {
		return r, fmt.Errorf("%w: %d trailing bytes", ErrRecordMalformed, len(rest))
	}
	return r, nil
}

// EncodeWALBatch serialises a group of records into one batch payload
// (the bytes sealed as a single WAL frame). Layout: version u8
// (batchRecordVersion), count uvarint, then each record's
// appendWALRecord bytes, uvarint-length-prefixed. The records must carry
// consecutive LSNs; replay enforces that.
func EncodeWALBatch(recs []Record) []byte {
	size := 1 + uvarintLen(uint64(len(recs)))
	for _, r := range recs {
		n := walRecordSize(r)
		size += uvarintLen(uint64(n)) + n
	}
	buf := make([]byte, 0, size)
	buf = append(buf, batchRecordVersion)
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for _, r := range recs {
		buf = binary.AppendUvarint(buf, uint64(walRecordSize(r)))
		buf = appendWALRecord(buf, r)
	}
	return buf
}

// DecodeWALBatch parses a batch payload produced by EncodeWALBatch.
// Like DecodeWALRecord it is an untrusted-input surface and must fail
// cleanly on arbitrary bytes; trailing garbage is rejected.
func DecodeWALBatch(buf []byte) ([]Record, error) {
	if len(buf) < 2 {
		return nil, fmt.Errorf("%w: %d bytes", ErrRecordTruncated, len(buf))
	}
	if buf[0] != batchRecordVersion {
		return nil, fmt.Errorf("%w: batch version %d", ErrRecordMalformed, buf[0])
	}
	rest := buf[1:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("%w: batch count", ErrRecordTruncated)
	}
	if count == 0 || count > maxBatchRecords {
		return nil, fmt.Errorf("%w: batch count %d", ErrRecordMalformed, count)
	}
	rest = rest[n:]
	recs := make([]Record, 0, count)
	for i := uint64(0); i < count; i++ {
		subLen, w := binary.Uvarint(rest)
		if w <= 0 {
			return nil, fmt.Errorf("%w: batch record %d length", ErrRecordTruncated, i)
		}
		// A single record holds at most three maxRecordField fields
		// plus small fixed framing.
		if subLen > maxRecordField*4 {
			return nil, fmt.Errorf("%w: batch record %d length %d", ErrRecordMalformed, i, subLen)
		}
		rest = rest[w:]
		if uint64(len(rest)) < subLen {
			return nil, fmt.Errorf("%w: batch record %d needs %d bytes, have %d", ErrRecordTruncated, i, subLen, len(rest))
		}
		rec, err := DecodeWALRecord(rest[:subLen])
		if err != nil {
			return nil, fmt.Errorf("batch record %d: %w", i, err)
		}
		recs = append(recs, rec)
		rest = rest[subLen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrRecordMalformed, len(rest))
	}
	return recs, nil
}

func decodeField(buf []byte, what string) (field, rest []byte, err error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, nil, fmt.Errorf("%w: %s length", ErrRecordTruncated, what)
	}
	if n > maxRecordField {
		return nil, nil, fmt.Errorf("%w: %s length %d", ErrRecordMalformed, what, n)
	}
	buf = buf[w:]
	if uint64(len(buf)) < n {
		return nil, nil, fmt.Errorf("%w: %s needs %d bytes, have %d", ErrRecordTruncated, what, n, len(buf))
	}
	return buf[:n], buf[n:], nil
}

// appendU64 / readU64: fixed-width big-endian fields for headers, where
// self-description matters more than size.
func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func readU64(buf []byte) (uint64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("%w: u64", ErrRecordTruncated)
	}
	return binary.BigEndian.Uint64(buf), buf[8:], nil
}

// sanity guard for 32-bit length prefixes on sealed envelopes.
func fitsLen(n int) bool { return n >= 0 && n <= math.MaxInt32 }
