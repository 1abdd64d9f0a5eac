package heap

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"montsalvat/internal/cycles"
	"montsalvat/internal/epc"
	"montsalvat/internal/mee"
	"montsalvat/internal/simcfg"
)

// memoryKind is one Backend implementation under the conformance table:
// how to make one, the error an out-of-range access wraps, and how to
// flip a stored byte behind the memory's back (nil when the memory keeps
// no integrity tag).
type memoryKind struct {
	name   string
	make   func(tb testing.TB, size int) Backend
	oob    error
	tamper func(m Backend, off int) error
}

var memoryKinds = []memoryKind{
	{
		name: "plain",
		make: func(_ testing.TB, size int) Backend { return NewPlainMemory(size) },
		oob:  ErrOutOfRange,
	},
	{
		name: "epc",
		make: func(tb testing.TB, size int) Backend {
			eng, err := mee.NewWithKey(bytes.Repeat([]byte{5}, 32))
			if err != nil {
				tb.Fatal(err)
			}
			clk := cycles.New(simcfg.CPUHz)
			res, err := epc.NewResidency(64*simcfg.PageBytes, clk)
			if err != nil {
				tb.Fatal(err)
			}
			m, err := epc.New(size, res, eng, clk)
			if err != nil {
				tb.Fatal(err)
			}
			return m
		},
		oob:    epc.ErrOutOfRange,
		tamper: func(m Backend, off int) error { return m.(*epc.Memory).Tamper(off) },
	},
}

// pattern is n bytes no two neighbouring pages' worth of which repeat.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i/251 + 1)
	}
	return b
}

// TestMemoryConformance holds PlainMemory and epc.Memory to one contract:
// a page is backed on its first write, a never-written byte reads as
// zero without backing anything, accesses may straddle pages, Grow keeps
// contents, an access out of range fails typed, and (for the EPC) a
// tampered written line fails integrity while a tampered never-written
// line still reads zeros.
func TestMemoryConformance(t *testing.T) {
	const page = simcfg.PageBytes
	for _, k := range memoryKinds {
		t.Run(k.name+"/unwritten-reads-zero-unbacked", func(t *testing.T) {
			// The least of three fresh memories: a page backed on read
			// would show in each, another goroutine's allocation in one.
			least := uint64(math.MaxUint64)
			for range 3 {
				m := k.make(t, 16*page)
				// Residency is not backing: make every page resident first.
				if err := m.Touch(0, m.Size()); err != nil {
					t.Fatal(err)
				}
				dst := bytes.Repeat([]byte{0xaa}, 16*page)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for off := 0; off < len(dst); off += page / 2 {
					if err := m.Read(off, dst[off:off+page/2]); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				if !bytes.Equal(dst, make([]byte, len(dst))) {
					t.Fatal("a never-written byte read non-zero")
				}
				if got := after.TotalAlloc - before.TotalAlloc; got < least {
					least = got
				}
			}
			if least != 0 {
				t.Fatalf("reading 16 never-written pages allocated %d bytes: a page was backed", least)
			}
		})
		t.Run(k.name+"/straddles-pages", func(t *testing.T) {
			m := k.make(t, 4*page)
			src := pattern(2*page + 300)
			off := page - 150
			if err := m.Write(off, src); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 4*page)
			if err := m.Read(0, got); err != nil {
				t.Fatal(err)
			}
			want := make([]byte, 4*page)
			copy(want[off:], src)
			if !bytes.Equal(got, want) {
				t.Fatal("a straddling write did not read back in place, with zeros around it")
			}
			// A straddling rewrite of the middle keeps both ends.
			if err := m.Write(2*page-3, []byte{1, 2, 3, 4, 5, 6}); err != nil {
				t.Fatal(err)
			}
			copy(want[2*page-3:], []byte{1, 2, 3, 4, 5, 6})
			if err := m.Read(page-10, got[:2*page]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:2*page], want[page-10:3*page-10]) {
				t.Fatal("a straddling read after a straddling rewrite differs")
			}
		})
		t.Run(k.name+"/grow-keeps-contents", func(t *testing.T) {
			m := k.make(t, page+100)
			src := pattern(page + 100)
			if err := m.Write(0, src); err != nil {
				t.Fatal(err)
			}
			if err := m.Grow(5 * page); err != nil {
				t.Fatal(err)
			}
			if m.Size() < 5*page {
				t.Fatalf("Size = %d after Grow(%d)", m.Size(), 5*page)
			}
			got := make([]byte, 5*page)
			if err := m.Read(0, got); err != nil {
				t.Fatal(err)
			}
			want := make([]byte, 5*page)
			copy(want, src)
			if !bytes.Equal(got, want) {
				t.Fatal("Grow lost contents or grew non-zero bytes")
			}
		})
		t.Run(k.name+"/out-of-range-typed", func(t *testing.T) {
			m := k.make(t, 2*page)
			size := m.Size()
			for _, err := range []error{
				m.Read(size-1, make([]byte, 2)),
				m.Read(-1, make([]byte, 1)),
				m.Write(size, []byte{1}),
				m.Write(-8, make([]byte, 4)),
				m.Touch(size-4, 5),
				m.Touch(0, -1),
			} {
				if !errors.Is(err, k.oob) {
					t.Fatalf("out-of-range access: err = %v, want %v", err, k.oob)
				}
			}
		})
		if k.tamper == nil {
			continue
		}
		t.Run(k.name+"/tampered-written-line-fails", func(t *testing.T) {
			m := k.make(t, 2*page)
			if err := m.Write(page+64, pattern(64)); err != nil {
				t.Fatal(err)
			}
			if err := k.tamper(m, page+70); err != nil {
				t.Fatal(err)
			}
			if err := m.Read(page+64, make([]byte, 64)); !errors.Is(err, mee.ErrIntegrity) {
				t.Fatalf("read of a tampered line: err = %v, want mee.ErrIntegrity", err)
			}
		})
		t.Run(k.name+"/tampered-unwritten-line-reads-zero", func(t *testing.T) {
			m := k.make(t, 2*page)
			// One line of the page written, the next never: the page is
			// backed, the tampered line is not.
			if err := m.Write(page, pattern(64)); err != nil {
				t.Fatal(err)
			}
			for _, off := range []int{page + 64, 10} {
				if err := k.tamper(m, off); err != nil {
					t.Fatal(err)
				}
				got := bytes.Repeat([]byte{0xaa}, 64)
				if err := m.Read(off/64*64, got); err != nil {
					t.Fatalf("read of a tampered never-written line at %d: %v", off, err)
				}
				if !bytes.Equal(got, make([]byte, 64)) {
					t.Fatalf("a tampered never-written line at %d read non-zero", off)
				}
			}
		})
	}
}
