// Package paldb implements an embeddable write-once key-value store in
// the style of LinkedIn's PalDB, the macro-benchmark of the paper's §6.5.
//
// Like PalDB, the store is built once by a writer and then served
// read-only: the writer streams records to the store file with regular
// I/O ("PalDB ... does regular I/O for writes to the store file") and
// seals it with a hash index; the reader memory-maps the file ("PalDB
// optimises reads by memory mapping the store file in memory") and
// serves gets from the mapped bytes.
//
// The store operates over a shim.FS, so when it runs inside an enclave
// every write is an ocall through the shim (§5.4) while reads hit the
// mapped copy — exactly the asymmetry that makes the RTWU partitioning
// scheme much faster than RUWT in Fig. 7.
//
// File layout:
//
//	[8]  magic "PALDBGO1"
//	[8]  record count
//	[8]  index offset
//	...  records: varint keyLen, key, varint valLen, val
//	...  index: 8-byte capacity, then capacity slots of
//	     (8-byte key hash, 8-byte record offset); offset 0 = empty
package paldb

import (
	"encoding/binary"
	"errors"
	"fmt"

	"montsalvat/internal/shim"
)

const (
	magic      = "PALDBGO1"
	headerSize = 24
	slotSize   = 16
	loadFactor = 0.7
)

// Errors returned by the store.
var (
	ErrKeyNotFound  = errors.New("paldb: key not found")
	ErrDuplicateKey = errors.New("paldb: duplicate key in write-once store")
	ErrClosed       = errors.New("paldb: writer already closed")
	ErrCorrupt      = errors.New("paldb: corrupt store file")
)

// WriterStats counts writer activity.
type WriterStats struct {
	// Puts is the number of records written.
	Puts int
	// BytesWritten counts all file writes including the index.
	BytesWritten int64
	// WriteOps counts FS write operations (each is an ocall when the
	// writer runs inside the enclave).
	WriteOps int
}

// Writer builds a store file. It is not safe for concurrent use.
type Writer struct {
	fs     shim.FS
	name   string
	off    int64
	keys   map[uint64]int64 // key hash -> record offset
	closed bool
	stats  WriterStats
}

// NewWriter creates a store file, truncating any previous content, and
// writes the (placeholder) header.
func NewWriter(fs shim.FS, name string) (*Writer, error) {
	if err := fs.Remove(name); err != nil && !errors.Is(err, shim.ErrNotFound) {
		return nil, err
	}
	w := &Writer{fs: fs, name: name, off: headerSize, keys: make(map[uint64]int64)}
	header := make([]byte, headerSize)
	copy(header, magic)
	if err := fs.WriteAt(name, 0, header); err != nil {
		return nil, err
	}
	w.stats.WriteOps++
	w.stats.BytesWritten += headerSize
	return w, nil
}

// Put appends one record. Keys must be unique (write-once semantics).
// Each Put performs one file write, like PalDB's streaming store build.
func (w *Writer) Put(key, value []byte) error {
	if w.closed {
		return ErrClosed
	}
	h := hashKey(key)
	if _, dup := w.keys[h]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateKey, key)
	}
	rec := make([]byte, 0, len(key)+len(value)+8)
	rec = binary.AppendUvarint(rec, uint64(len(key)))
	rec = append(rec, key...)
	rec = binary.AppendUvarint(rec, uint64(len(value)))
	rec = append(rec, value...)
	if err := w.fs.WriteAt(w.name, w.off, rec); err != nil {
		return err
	}
	w.keys[h] = w.off
	w.off += int64(len(rec))
	w.stats.Puts++
	w.stats.WriteOps++
	w.stats.BytesWritten += int64(len(rec))
	return nil
}

// Close writes the hash index and the final header, sealing the store.
func (w *Writer) Close() error {
	if w.closed {
		return ErrClosed
	}
	w.closed = true

	capacity := 8
	for float64(len(w.keys)) > loadFactor*float64(capacity) {
		capacity *= 2
	}
	index := make([]byte, 8+capacity*slotSize)
	binary.LittleEndian.PutUint64(index, uint64(capacity))
	for h, off := range w.keys {
		slot := int(h % uint64(capacity))
		for {
			base := 8 + slot*slotSize
			if binary.LittleEndian.Uint64(index[base+8:]) == 0 {
				binary.LittleEndian.PutUint64(index[base:], h)
				binary.LittleEndian.PutUint64(index[base+8:], uint64(off))
				break
			}
			slot = (slot + 1) % capacity
		}
	}
	if err := w.fs.WriteAt(w.name, w.off, index); err != nil {
		return err
	}
	w.stats.WriteOps++
	w.stats.BytesWritten += int64(len(index))

	header := make([]byte, headerSize)
	copy(header, magic)
	binary.LittleEndian.PutUint64(header[8:], uint64(len(w.keys)))
	binary.LittleEndian.PutUint64(header[16:], uint64(w.off))
	if err := w.fs.WriteAt(w.name, 0, header); err != nil {
		return err
	}
	w.stats.WriteOps++
	w.stats.BytesWritten += headerSize
	return nil
}

// Stats returns writer counters.
func (w *Writer) Stats() WriterStats { return w.stats }

// ReaderStats counts reader activity.
type ReaderStats struct {
	// Gets counts lookups; Hits the successful ones.
	Gets int
	Hits int
	// MappedBytes is the size of the memory-mapped store file.
	MappedBytes int64
	// BytesAccessed counts mapped bytes touched by lookups (the traffic
	// that pays MEE cost when the reader runs inside an enclave).
	BytesAccessed int64
}

// Reader serves lookups from a sealed store. It is not safe for
// concurrent use.
type Reader struct {
	data     []byte // the "memory-mapped" store file
	indexOff int64
	capacity int
	stats    ReaderStats
	// touch, when set, is invoked with the number of mapped bytes each
	// lookup reads — the hook the enclave runtime uses to charge MEE
	// cost for accessing the map from trusted code.
	touch func(n int)
}

// Open memory-maps the store file. The whole file is read once (a single
// large I/O), matching PalDB's mmap-based reader.
func Open(fs shim.FS, name string) (*Reader, error) {
	size, err := fs.Size(name)
	if err != nil {
		return nil, err
	}
	if size < headerSize {
		return nil, fmt.Errorf("%w: file too small", ErrCorrupt)
	}
	data, err := fs.ReadAt(name, 0, int(size))
	if err != nil {
		return nil, err
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	indexOff := int64(binary.LittleEndian.Uint64(data[16:]))
	if indexOff < headerSize || indexOff+8 > size {
		return nil, fmt.Errorf("%w: bad index offset", ErrCorrupt)
	}
	capacity := int(binary.LittleEndian.Uint64(data[indexOff:]))
	if capacity <= 0 || indexOff+8+int64(capacity*slotSize) > size {
		return nil, fmt.Errorf("%w: bad index capacity", ErrCorrupt)
	}
	return &Reader{
		data:     data,
		indexOff: indexOff,
		capacity: capacity,
		stats:    ReaderStats{MappedBytes: size},
	}, nil
}

// SetTouch installs a hook invoked with the mapped bytes each lookup
// touches.
func (r *Reader) SetTouch(touch func(n int)) { r.touch = touch }

// Get returns the value stored for key.
func (r *Reader) Get(key []byte) ([]byte, error) {
	r.stats.Gets++
	h := hashKey(key)
	slot := int(h % uint64(r.capacity))
	touched := 0
	defer func() {
		r.stats.BytesAccessed += int64(touched)
		if r.touch != nil {
			r.touch(touched)
		}
	}()
	for probes := 0; probes < r.capacity; probes++ {
		base := r.indexOff + 8 + int64(slot*slotSize)
		slotHash := binary.LittleEndian.Uint64(r.data[base:])
		slotOff := binary.LittleEndian.Uint64(r.data[base+8:])
		touched += slotSize
		if slotOff == 0 {
			return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
		}
		if slotHash == h {
			k, v, n, err := r.record(int64(slotOff))
			if err != nil {
				return nil, err
			}
			touched += n
			if string(k) == string(key) {
				r.stats.Hits++
				return v, nil
			}
		}
		slot = (slot + 1) % r.capacity
	}
	return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
}

// Stats returns reader counters.
func (r *Reader) Stats() ReaderStats { return r.stats }

func (r *Reader) record(off int64) (key, val []byte, n int, err error) {
	if off >= int64(len(r.data)) {
		return nil, nil, 0, ErrCorrupt
	}
	buf := r.data[off:]
	kLen, c1 := binary.Uvarint(buf)
	if c1 <= 0 || uint64(len(buf)-c1) < kLen {
		return nil, nil, 0, ErrCorrupt
	}
	key = buf[c1 : c1+int(kLen)]
	rest := buf[c1+int(kLen):]
	vLen, c2 := binary.Uvarint(rest)
	if c2 <= 0 || uint64(len(rest)-c2) < vLen {
		return nil, nil, 0, ErrCorrupt
	}
	val = rest[c2 : c2+int(vLen)]
	return key, val, c1 + int(kLen) + c2 + int(vLen), nil
}

// hashKey is FNV-1a, standing in for PalDB's key hashing (the paper notes
// a strong hash such as MD5 minimises collisions; FNV-1a over full keys
// plus an exact key compare gives the same correctness).
func hashKey(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	if h == 0 {
		h = 1 // offset 0 marks empty slots
	}
	return h
}
