package heap

import (
	"errors"
	"fmt"

	"montsalvat/internal/simcfg"
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

// ErrOutOfRange is returned by PlainMemory for an access beyond its size.
var ErrOutOfRange = errors.New("heap: plain memory access out of range")

var zeroPage [simcfg.PageBytes]byte // a never-written page reads as this

// PlainMemory is an unencrypted Backend: ordinary process memory, as used
// by the untrusted runtime's heap. A page is backed on its first write.
type PlainMemory struct {
	size  int
	pages []*[simcfg.PageBytes]byte
}

var _ Backend = (*PlainMemory)(nil)

// NewPlainMemory returns a zeroed plain memory of the given size.
func NewPlainMemory(size int) *PlainMemory {
	m := &PlainMemory{}
	_ = m.Grow(size) // only extends the page table: it cannot fail
	return m
}

func (m *PlainMemory) check(off, n int) error {
	if off < 0 || n < 0 || off+n > m.size {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfRange, off, n, m.size)
	}
	return nil
}

// Read implements Backend.
func (m *PlainMemory) Read(off int, dst []byte) error {
	if err := m.check(off, len(dst)); err != nil {
		return err
	}
	for len(dst) > 0 {
		pg := m.pages[off/simcfg.PageBytes]
		if pg == nil {
			pg = &zeroPage
		}
		n := copy(dst, pg[off%simcfg.PageBytes:])
		off, dst = off+n, dst[n:]
	}
	return nil
}

// Write implements Backend.
func (m *PlainMemory) Write(off int, src []byte) error {
	if err := m.check(off, len(src)); err != nil {
		return err
	}
	for len(src) > 0 {
		p := off / simcfg.PageBytes
		if m.pages[p] == nil {
			m.pages[p] = new([simcfg.PageBytes]byte)
		}
		n := copy(m.pages[p][off%simcfg.PageBytes:], src)
		off, src = off+n, src[n:]
	}
	return nil
}

// Touch implements Backend: plain memory charges nothing, so only the
// bounds are checked.
func (m *PlainMemory) Touch(off, n int) error { return m.check(off, n) }

// Size implements Backend.
func (m *PlainMemory) Size() int { return m.size }

// Grow implements Backend. Only the page table grows.
func (m *PlainMemory) Grow(newSize int) error {
	if newSize <= m.size {
		return nil
	}
	m.size = newSize
	n := (newSize + simcfg.PageBytes - 1) / simcfg.PageBytes
	m.pages = append(m.pages, make([]*[simcfg.PageBytes]byte, n-len(m.pages))...)
	return nil
}
