// Package shim implements Montsalvat's libc shim and its untrusted
// helper (paper §5.4).
//
// SGX enclaves cannot issue system calls, so "we leverage an approach
// which involves redefining unsupported libc routines as wrappers for
// ocalls. These redefined libc routines in the enclave constitute
// Montsalvat's shim library. The latter intercepts calls to unsupported
// libc routines and relays them to the untrusted runtime. A shim helper
// library in the untrusted runtime then invokes the real libc routines."
//
// FS is the file abstraction used by application code in both runtimes.
// The untrusted runtime uses a real FS implementation directly (MemFS for
// hermetic tests and benchmarks, DirFS over the host filesystem).
// TrustedShim wraps an FS so that every operation performed from inside
// the enclave pays one ocall transition plus the MEE cost of copying the
// data buffer across the enclave boundary — this per-write ocall tax is
// what partitioning removes in Fig. 6 (I/O-intensive) and Fig. 7 (PalDB
// writes).
package shim

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"montsalvat/internal/cycles"
	"montsalvat/internal/sgx"
	"montsalvat/internal/simcfg"
)

// ErrNotFound is returned for operations on nonexistent files.
var ErrNotFound = errors.New("shim: file not found")

// Ocall identifiers of the shim edge routines. They live in a reserved
// range so they never collide with application relay routines.
const (
	OcallWriteAt = 9001 + iota
	OcallAppend
	OcallReadAt
	OcallSize
	OcallRemove
	OcallList
)

// FS is the filesystem surface exposed to application code. WriteAt
// beyond the current size extends the file with zeros.
type FS interface {
	// WriteAt writes data at off, creating or extending the file.
	WriteAt(name string, off int64, data []byte) error
	// Append writes data at the end of the file (creating it) and
	// returns the offset it was written at.
	Append(name string, data []byte) (int64, error)
	// ReadAt reads exactly n bytes at off.
	ReadAt(name string, off int64, n int) ([]byte, error)
	// Size returns the file size.
	Size(name string) (int64, error)
	// Remove deletes the file.
	Remove(name string) error
	// List returns all file names, sorted.
	List() ([]string, error)
}

// MemFS is an in-memory FS, safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

type memFile struct {
	data []byte
}

var _ FS = (*MemFS)(nil)

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

// WriteAt implements FS.
func (fs *MemFS) WriteAt(name string, off int64, data []byte) error {
	if off < 0 {
		return fmt.Errorf("shim: negative offset %d", off)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		f = &memFile{}
		fs.files[name] = f
	}
	f.extend(off + int64(len(data)))
	copy(f.data[off:], data)
	return nil
}

// Append implements FS.
func (fs *MemFS) Append(name string, data []byte) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		f = &memFile{}
		fs.files[name] = f
	}
	off := int64(len(f.data))
	f.extend(off + int64(len(data)))
	copy(f.data[off:], data)
	return off, nil
}

// extend grows the file to newLen bytes, doubling capacity so that
// incremental writers (e.g. record-at-a-time store builds) stay linear.
func (f *memFile) extend(newLen int64) {
	if int64(len(f.data)) >= newLen {
		return
	}
	if int64(cap(f.data)) >= newLen {
		f.data = f.data[:newLen]
		return
	}
	newCap := int64(cap(f.data)) * 2
	if newCap < newLen {
		newCap = newLen
	}
	if newCap < 1024 {
		newCap = 1024
	}
	grown := make([]byte, newLen, newCap)
	copy(grown, f.data)
	f.data = grown
}

// ReadAt implements FS.
func (fs *MemFS) ReadAt(name string, off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("shim: invalid read off=%d n=%d", off, n)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if off+int64(n) > int64(len(f.data)) {
		return nil, fmt.Errorf("shim: read past EOF: %s off=%d n=%d size=%d", name, off, n, len(f.data))
	}
	out := make([]byte, n)
	copy(out, f.data[off:])
	return out, nil
}

// Size implements FS.
func (fs *MemFS) Size(name string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return int64(len(f.data)), nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(fs.files, name)
	return nil
}

// List implements FS.
func (fs *MemFS) List() ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, 0, len(fs.files))
	for name := range fs.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// DirFS is an FS rooted at a host directory. File names must be simple
// relative paths (no traversal); a name with a directory part ("p/x")
// creates that directory on its first write.
//
// DirFS keeps one read-write handle open per file it has touched and
// tracks each file's size from its own writes, so an Append is a single
// pwrite at the tracked end — no open, stat or close. The rule that
// buys: one writer per root. A file another process (or another DirFS
// on the same root) changes behind its back is not seen. Remove closes
// the file's handle; Close closes them all.
type DirFS struct {
	root string

	mu    sync.Mutex
	files map[string]*dirFile // by host path, so aliases share a handle
}

// dirFile is an open handle and the file's size as DirFS has written
// it.
type dirFile struct {
	f    *os.File
	size int64
}

var _ FS = (*DirFS)(nil)

// NewDirFS returns an FS over the given directory.
func NewDirFS(root string) (*DirFS, error) {
	info, err := os.Stat(root)
	if err != nil {
		return nil, fmt.Errorf("shim: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("shim: %s is not a directory", root)
	}
	return &DirFS{root: root, files: make(map[string]*dirFile)}, nil
}

func (fs *DirFS) path(name string) (string, error) {
	if name == "" || strings.Contains(name, "..") || filepath.IsAbs(name) {
		return "", fmt.Errorf("shim: invalid file name %q", name)
	}
	return filepath.Join(fs.root, name), nil
}

// file returns the open handle of name, opening it on first use. With
// create a missing file (and its missing parent directories) is made;
// without, a missing file is ErrNotFound. Caller holds fs.mu.
func (fs *DirFS) file(name string, create bool) (*dirFile, error) {
	p, err := fs.path(name)
	if err != nil {
		return nil, err
	}
	if df, ok := fs.files[p]; ok {
		return df, nil
	}
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE
	}
	f, err := os.OpenFile(p, flags, 0o644)
	if create && errors.Is(err, os.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return nil, fmt.Errorf("shim: %w", err)
		}
		f, err = os.OpenFile(p, flags, 0o644)
	}
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		return nil, fmt.Errorf("shim: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("shim: %w", err)
	}
	df := &dirFile{f: f, size: info.Size()}
	fs.files[p] = df
	return df, nil
}

// WriteAt implements FS.
func (fs *DirFS) WriteAt(name string, off int64, data []byte) error {
	if off < 0 {
		return fmt.Errorf("shim: negative offset %d", off)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	df, err := fs.file(name, true)
	if err != nil {
		return err
	}
	n, err := df.f.WriteAt(data, off)
	df.size = max(df.size, off+int64(n))
	if err != nil {
		return fmt.Errorf("shim: %w", err)
	}
	return nil
}

// Append implements FS: one pwrite at the tracked end of the file.
func (fs *DirFS) Append(name string, data []byte) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	df, err := fs.file(name, true)
	if err != nil {
		return 0, err
	}
	off := df.size
	n, err := df.f.WriteAt(data, off)
	df.size += int64(n)
	if err != nil {
		return 0, fmt.Errorf("shim: %w", err)
	}
	return off, nil
}

// ReadAt implements FS.
func (fs *DirFS) ReadAt(name string, off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("shim: invalid read off=%d n=%d", off, n)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	df, err := fs.file(name, false)
	if err != nil {
		return nil, err
	}
	if off+int64(n) > df.size {
		return nil, fmt.Errorf("shim: read past EOF: %s off=%d n=%d size=%d", name, off, n, df.size)
	}
	out := make([]byte, n)
	if _, err := df.f.ReadAt(out, off); err != nil {
		return nil, fmt.Errorf("shim: %w", err)
	}
	return out, nil
}

// Size implements FS.
func (fs *DirFS) Size(name string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	df, err := fs.file(name, false)
	if err != nil {
		return 0, err
	}
	return df.size, nil
}

// Remove implements FS.
func (fs *DirFS) Remove(name string) error {
	p, err := fs.path(name)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if df, ok := fs.files[p]; ok {
		delete(fs.files, p)
		df.f.Close()
	}
	if err := os.Remove(p); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		return fmt.Errorf("shim: %w", err)
	}
	return nil
}

// Close closes every open handle. The DirFS stays usable: the next
// operation on a file reopens it.
func (fs *DirFS) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var errs []error
	for p, df := range fs.files {
		errs = append(errs, df.f.Close())
		delete(fs.files, p)
	}
	return errors.Join(errs...)
}

// List implements FS.
func (fs *DirFS) List() ([]string, error) {
	entries, err := os.ReadDir(fs.root)
	if err != nil {
		return nil, fmt.Errorf("shim: %w", err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Stats counts shim activity.
type Stats struct {
	// Ocalls counts relayed libc operations.
	Ocalls uint64
	// BytesIn and BytesOut count data copied into and out of the
	// enclave by shim operations.
	BytesIn  uint64
	BytesOut uint64
}

// TrustedShim is the in-enclave shim library: an FS whose every operation
// is relayed to the untrusted helper via an ocall, paying the transition
// plus the boundary copy of the data buffer.
type TrustedShim struct {
	enclave *sgx.Enclave
	helper  FS
	clock   *cycles.Clock

	mu    sync.Mutex
	stats Stats
}

var _ FS = (*TrustedShim)(nil)

// NewTrustedShim wraps the untrusted helper FS for use inside enclave e.
func NewTrustedShim(e *sgx.Enclave, helper FS) *TrustedShim {
	return &TrustedShim{enclave: e, helper: helper, clock: e.Clock()}
}

// Stats returns a snapshot of shim counters.
func (s *TrustedShim) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *TrustedShim) relay(id int, bytesOut, bytesIn int, fn func() error) error {
	err := s.enclave.Ocall(id, fn)
	if err != nil {
		return err
	}
	// Copying buffers across the boundary streams them through the MEE.
	s.clock.ChargeBytes(bytesOut+bytesIn, simcfg.MEEBytesPerCycle)
	s.mu.Lock()
	s.stats.Ocalls++
	s.stats.BytesOut += uint64(bytesOut)
	s.stats.BytesIn += uint64(bytesIn)
	s.mu.Unlock()
	return nil
}

// WriteAt implements FS.
func (s *TrustedShim) WriteAt(name string, off int64, data []byte) error {
	return s.relay(OcallWriteAt, len(data), 0, func() error {
		return s.helper.WriteAt(name, off, data)
	})
}

// Append implements FS.
func (s *TrustedShim) Append(name string, data []byte) (int64, error) {
	var off int64
	err := s.relay(OcallAppend, len(data), 0, func() error {
		var err error
		off, err = s.helper.Append(name, data)
		return err
	})
	return off, err
}

// ReadAt implements FS.
func (s *TrustedShim) ReadAt(name string, off int64, n int) ([]byte, error) {
	var out []byte
	err := s.relay(OcallReadAt, 0, n, func() error {
		var err error
		out, err = s.helper.ReadAt(name, off, n)
		return err
	})
	return out, err
}

// Size implements FS.
func (s *TrustedShim) Size(name string) (int64, error) {
	var size int64
	err := s.relay(OcallSize, 0, 8, func() error {
		var err error
		size, err = s.helper.Size(name)
		return err
	})
	return size, err
}

// Remove implements FS.
func (s *TrustedShim) Remove(name string) error {
	return s.relay(OcallRemove, 0, 0, func() error {
		return s.helper.Remove(name)
	})
}

// List implements FS.
func (s *TrustedShim) List() ([]string, error) {
	var names []string
	err := s.relay(OcallList, 0, 0, func() error {
		var err error
		names, err = s.helper.List()
		return err
	})
	return names, err
}
