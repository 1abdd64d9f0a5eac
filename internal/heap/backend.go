package heap

import (
	"fmt"
)

// Backend abstracts the memory a heap semispace lives in. The untrusted
// runtime uses PlainMemory; the trusted runtime uses an epc.Memory, so
// every byte the collector copies pays real MEE encryption cost — the
// mechanism behind the paper's Fig. 5a ("the copy operation of this GC in
// the enclave leads to more data exchange between the CPU and the EPC").
type Backend interface {
	// Read copies len(dst) bytes at off into dst.
	Read(off int, dst []byte) error
	// Write copies src into memory at off.
	Write(off int, src []byte) error
	// Touch accounts for an access of n bytes at off as Read or Write
	// would — bounds, cycle charge, paging — without moving any bytes.
	Touch(off, n int) error
	// Size is the current addressable size in bytes.
	Size() int
	// Grow extends the address space to at least newSize bytes.
	Grow(newSize int) error
}

// PlainMemory is an unencrypted Backend: ordinary process memory, as used
// by the untrusted runtime's heap.
type PlainMemory struct {
	buf []byte
}

var _ Backend = (*PlainMemory)(nil)

// NewPlainMemory returns a zeroed plain memory of the given size.
func NewPlainMemory(size int) *PlainMemory {
	return &PlainMemory{buf: make([]byte, size)}
}

// Read implements Backend.
func (m *PlainMemory) Read(off int, dst []byte) error {
	if off < 0 || off+len(dst) > len(m.buf) {
		return fmt.Errorf("plain memory: read out of range: off=%d len=%d size=%d", off, len(dst), len(m.buf))
	}
	copy(dst, m.buf[off:])
	return nil
}

// Write implements Backend.
func (m *PlainMemory) Write(off int, src []byte) error {
	if off < 0 || off+len(src) > len(m.buf) {
		return fmt.Errorf("plain memory: write out of range: off=%d len=%d size=%d", off, len(src), len(m.buf))
	}
	copy(m.buf[off:], src)
	return nil
}

// Touch implements Backend: plain memory charges nothing, so only the
// bounds are checked.
func (m *PlainMemory) Touch(off, n int) error {
	if off < 0 || n < 0 || off+n > len(m.buf) {
		return fmt.Errorf("plain memory: touch out of range: off=%d len=%d size=%d", off, n, len(m.buf))
	}
	return nil
}

// Size implements Backend.
func (m *PlainMemory) Size() int { return len(m.buf) }

// Grow implements Backend.
func (m *PlainMemory) Grow(newSize int) error {
	if newSize <= len(m.buf) {
		return nil
	}
	buf := make([]byte, newSize)
	copy(buf, m.buf)
	m.buf = buf
	return nil
}
