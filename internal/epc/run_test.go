package epc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"montsalvat/internal/cycles"
	"montsalvat/internal/mee"
	"montsalvat/internal/simcfg"
)

// model is what a Memory must be indistinguishable from: plain bytes, an
// LRU of resident pages touched one line at a time (the way the
// line-at-a-time data path walked an access), and the closed-form cycle
// sum — ChargeBytes per call plus a fixed cost per fault and eviction.
type model struct {
	data    []byte
	written []bool // per line
	flipped []byte // per byte: tamper mask not yet overwritten
	lru     []int  // resident pages, most recent first
	cap     int
	faults  uint64
	evicts  uint64
	cycles  int64
}

func newModel(size, epcPages int) *model {
	md := &model{cap: epcPages}
	md.grow(size)
	return md
}

func (md *model) grow(size int) {
	n := (size + lineBytes - 1) / lineBytes * lineBytes
	if n <= len(md.data) {
		return
	}
	md.data = append(md.data, make([]byte, n-len(md.data))...)
	md.flipped = append(md.flipped, make([]byte, n-len(md.flipped))...)
	md.written = append(md.written, make([]bool, n/lineBytes-len(md.written))...)
}

func (md *model) touch(page int) {
	for i, p := range md.lru {
		if p == page {
			copy(md.lru[1:i+1], md.lru[:i])
			md.lru[0] = page
			return
		}
	}
	md.faults++
	md.cycles += simcfg.EPCPageLoadCycles
	for len(md.lru) >= md.cap {
		md.lru = md.lru[:len(md.lru)-1]
		md.evicts++
		md.cycles += simcfg.EPCPageEvictCycles
	}
	md.lru = append([]int{page}, md.lru...)
}

// verify models the MEE checking written line li before it is read or
// patched. The tag covers the ciphertext XOR-folded to 16 bytes, so flips
// that cancel within a column go unnoticed: the line then verifies and
// decrypts (CTR) to the data with the flips applied.
func (md *model) verify(li int) bool {
	flips := md.flipped[li*lineBytes : (li+1)*lineBytes]
	var fold [16]byte
	for i, b := range flips {
		fold[i%16] ^= b
	}
	if fold != [16]byte{} {
		return false
	}
	for i, b := range flips {
		md.data[li*lineBytes+i] ^= b
		flips[i] = 0
	}
	return true
}

// access walks [off, off+n) line by line. write is nil for a read, the
// source bytes for a write; count-only accesses (Touch) pass move=false.
// It reports whether the access must fail with mee.ErrIntegrity.
func (md *model) access(off, n int, write []byte, move bool) (integrity bool, inRange bool) {
	if off < 0 || n < 0 || off+n > len(md.data) {
		return false, false
	}
	md.cycles += int64(float64(n) / simcfg.MEEBytesPerCycle)
	for pos := off; pos < off+n; {
		li := pos / lineBytes
		md.touch(pos / pageBytes)
		span := (li+1)*lineBytes - pos
		if span > off+n-pos {
			span = off + n - pos
		}
		if move {
			if (write == nil || span < lineBytes) && md.written[li] && !md.verify(li) {
				return true, true
			}
			if write != nil {
				copy(md.data[pos:pos+span], write[pos-off:])
				md.written[li] = true
				copy(md.flipped[li*lineBytes:(li+1)*lineBytes], make([]byte, lineBytes))
			}
		}
		pos += span
	}
	return false, true
}

func (md *model) tamper(off int) {
	if off >= 0 && off < len(md.data) {
		md.flipped[off] ^= 0xff
	}
}

type modelled struct {
	t   testing.TB
	m   *Memory
	res *Residency
	clk *cycles.Clock
	md  *model
}

func newModelled(t testing.TB, size, epcPages int) *modelled {
	t.Helper()
	eng, err := mee.NewWithKey(bytes.Repeat([]byte{7}, 32))
	if err != nil {
		t.Fatal(err)
	}
	clk := cycles.New(3.8e9)
	res, err := NewResidency(epcPages*pageBytes, clk)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(size, res, eng, clk)
	if err != nil {
		t.Fatal(err)
	}
	return &modelled{t: t, m: m, res: res, clk: clk, md: newModel(size, epcPages)}
}

func (x *modelled) checkErr(what string, off, n int, err error, integrity, inRange bool) {
	x.t.Helper()
	switch {
	case !inRange:
		if !errors.Is(err, ErrOutOfRange) {
			x.t.Fatalf("%s(%d, %d): err = %v, want ErrOutOfRange", what, off, n, err)
		}
	case integrity:
		if !errors.Is(err, mee.ErrIntegrity) {
			x.t.Fatalf("%s(%d, %d): err = %v, want ErrIntegrity", what, off, n, err)
		}
	case err != nil:
		x.t.Fatalf("%s(%d, %d): %v", what, off, n, err)
	}
}

func (x *modelled) write(off int, src []byte) {
	x.t.Helper()
	integrity, inRange := x.md.access(off, len(src), src, true)
	x.checkErr("Write", off, len(src), x.m.Write(off, src), integrity, inRange)
	x.checkLedger()
}

func (x *modelled) read(off, n int) {
	x.t.Helper()
	integrity, inRange := x.md.access(off, n, nil, true)
	dst := make([]byte, n)
	x.checkErr("Read", off, n, x.m.Read(off, dst), integrity, inRange)
	if inRange && !integrity && !bytes.Equal(dst, x.md.data[off:off+n]) {
		x.t.Fatalf("Read(%d, %d) returned bytes that differ from the model", off, n)
	}
	x.checkLedger()
}

func (x *modelled) touch(off, n int) {
	x.t.Helper()
	_, inRange := x.md.access(off, n, nil, false)
	x.checkErr("Touch", off, n, x.m.Touch(off, n), false, inRange)
	x.checkLedger()
}

func (x *modelled) grow(size int) {
	x.t.Helper()
	if err := x.m.Grow(size); err != nil {
		x.t.Fatalf("Grow(%d): %v", size, err)
	}
	x.md.grow(size)
	if x.m.Size() != len(x.md.data) {
		x.t.Fatalf("Size() = %d after Grow(%d), model has %d", x.m.Size(), size, len(x.md.data))
	}
}

func (x *modelled) tamper(off int) {
	x.t.Helper()
	err := x.m.Tamper(off)
	if inRange := off >= 0 && off < len(x.md.data); inRange != (err == nil) {
		x.t.Fatalf("Tamper(%d): %v with size %d", off, err, len(x.md.data))
	}
	x.md.tamper(off)
}

func (x *modelled) checkLedger() {
	x.t.Helper()
	s := x.res.Stats()
	if s.PageFaults != x.md.faults || s.Evictions != x.md.evicts || s.ResidentPages != len(x.md.lru) {
		x.t.Fatalf("paging: %d faults, %d evictions, %d resident; model %d, %d, %d",
			s.PageFaults, s.Evictions, s.ResidentPages, x.md.faults, x.md.evicts, len(x.md.lru))
	}
	if got := x.clk.Total(); got != x.md.cycles {
		x.t.Fatalf("cycles charged = %d, closed form = %d", got, x.md.cycles)
	}
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*31)
	}
	return b
}

// Tampering with the first, a middle or the last line of a multi-line run
// fails every later Read that covers the line, however often it is
// repeated: the memo never stands in for a line the MEE has not verified.
func TestTamperAnyLineOfRunDetected(t *testing.T) {
	const first, lines = 3, 70 // lines 3..72: two pages
	for _, bad := range []int{first, first + 40, first + lines - 1} {
		x := newModelled(t, 4*pageBytes, 4)
		x.write(first*lineBytes, pattern(lines*lineBytes, byte(bad)))
		x.read(first*lineBytes, lines*lineBytes)
		x.tamper(bad*lineBytes + 9)
		for i := 0; i < 3; i++ {
			x.read(first*lineBytes, lines*lineBytes)
			x.read(bad*lineBytes+60, 8) // a short read ending in the next line
		}
		if bad > first {
			x.read(first*lineBytes, (bad-first)*lineBytes) // the lines ahead of it still read
		}
		x.write(bad*lineBytes+4, []byte("patch")) // read-modify-write must verify first
		x.write(bad*lineBytes, pattern(lineBytes, 1))
		x.read(first*lineBytes, lines*lineBytes) // a whole-line store heals it
		if got := x.m.eng.Stats().IntegrityFailures; got != 7 {
			t.Fatalf("bad line %d: %d integrity failures, want 7", bad, got)
		}
	}
}

// A run that crosses a page boundary, against an EPC of two pages shared
// with a second memory, faults and evicts exactly as touching it line by
// line does.
func TestRunAcrossPagesFaultsLikeLineAtATime(t *testing.T) {
	x := newModelled(t, 8*pageBytes, 2)
	x.write(pageBytes-100, pattern(200, 1))          // pages 0,1
	x.write(2*pageBytes-64, pattern(2*pageBytes, 2)) // pages 1,2,3: evicts as it goes
	x.read(pageBytes-100, 200)                       // both gone again
	x.read(pageBytes-8, 16)                          // a header across the boundary, resident
	x.touch(3*pageBytes-1, pageBytes+2)              // pages 2,3,4
	x.write(5*pageBytes+17, pattern(3*pageBytes-17, 3))
	x.read(0, 8*pageBytes)
	x.read(8*pageBytes, 0)
	x.write(8*pageBytes-1, []byte{1, 2}) // out of range: nothing charged, nothing touched
	x.touch(-1, 4)
	if x.md.evicts == 0 {
		t.Fatal("the access pattern did not evict")
	}
}

func TestAccessDoesNotAllocate(t *testing.T) {
	m, _, _ := testMemory(t, 64<<10, 16<<10)
	for _, n := range []int{16, 64, 4096} {
		buf := pattern(n, byte(n))
		for _, off := range []int{0, 4096 + 56} { // aligned, and straddling lines
			if allocs := testing.AllocsPerRun(50, func() {
				if err := m.Write(off, buf); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("Write(%d, %d B) allocates %.0f times", off, n, allocs)
			}
			if allocs := testing.AllocsPerRun(50, func() {
				if err := m.Read(off, buf); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("Read(%d, %d B) allocates %.0f times", off, n, allocs)
			}
		}
	}
}

// FuzzMemoryModel drives random Read/Write/Touch/Grow/Tamper sequences
// against the model: bytes, errors, paging counters and charged cycles
// must agree after every step. A tamper whose op byte has its top bit set
// is followed by a read of the bytes it would have written, so the line
// the tamper sealed and flipped is opened at once.
func FuzzMemoryModel(f *testing.F) {
	f.Add([]byte{1, 0, 0, 255, 255, 0, 0, 0, 255, 255})
	f.Add([]byte{1, 15, 200, 1, 44, 4, 16, 0, 0, 0, 0, 15, 190, 0, 90, 1, 16, 0, 0, 64, 0, 15, 190, 0, 90})
	f.Add([]byte{3, 0, 0, 0, 5, 1, 47, 255, 8, 0, 2, 40, 0, 9, 0, 0, 0, 0, 80, 0})
	f.Add([]byte{1, 0, 30, 16, 200, 0x84, 4, 16, 0, 64, 0x84, 4, 16, 0, 64, 1, 16, 0, 0, 9, 0x84, 16, 4, 0, 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		x := newModelled(t, 3*pageBytes+100, 2)
		const maxSize = 6 * pageBytes
		for ; len(ops) >= 5; ops = ops[5:] {
			// Offsets reach a little past the largest size, lengths up
			// to two pages and a bit, so out-of-range calls occur too.
			off := (int(ops[1])<<8 | int(ops[2])) % (maxSize + 64)
			n := (int(ops[3])<<8 | int(ops[4])) % (2*pageBytes + 130)
			switch ops[0] % 5 {
			case 0:
				x.read(off, n)
			case 1:
				x.write(off, pattern(n, ops[4]))
			case 2:
				x.touch(off, n)
			case 3:
				x.grow(off)
			case 4:
				x.tamper(off)
				if ops[0]&0x80 != 0 {
					x.read(off, n)
				}
			}
		}
		x.read(0, len(x.md.data))
	})
}

// TestTamperSeesEagerSealing: after random writes — aligned, partial-line
// and page-crossing — a tamper on each written page shows the ciphertext
// and tags that sealing every store at once leaves: each written line of
// the page is the engine's sealing of the final plaintext under a version
// that counts the writes to the line, and the tampered line fails its
// next read.
func TestTamperSeesEagerSealing(t *testing.T) {
	const pages = 4
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20; iter++ {
		m, _, _ := testMemory(t, pages*pageBytes, 2*pageBytes)
		plain := make([]byte, pages*pageBytes)
		versions := make([]uint64, pages*linesPerPage)
		for w := 0; w < 1+rng.Intn(40); w++ {
			var off, n int
			switch rng.Intn(3) {
			case 0: // whole lines
				off, n = rng.Intn(pages*linesPerPage)*lineBytes, (1+rng.Intn(8))*lineBytes
			case 1: // inside one line
				off = rng.Intn(pages * pageBytes)
				n = 1 + rng.Intn(lineBytes-off%lineBytes)
			default: // across a page boundary
				off = (1+rng.Intn(pages-1))*pageBytes - 1 - rng.Intn(300)
				n = 2 + rng.Intn(600)
			}
			n = min(n, len(plain)-off)
			src := make([]byte, n)
			rng.Read(src)
			if err := m.Write(off, src); err != nil {
				t.Fatal(err)
			}
			copy(plain[off:], src)
			for li := off / lineBytes; li <= (off+n-1)/lineBytes; li++ {
				versions[li]++
			}
		}
		var s mee.Scratch
		for p, pg := range m.pages {
			if pg == nil {
				continue
			}
			off := p*pageBytes + rng.Intn(pageBytes)
			if err := m.Tamper(off); err != nil {
				t.Fatal(err)
			}
			pg.ct[off%pageBytes] ^= 0xff // look at what the tamper found
			for li := 0; li < linesPerPage; li++ {
				g := p*linesPerPage + li
				if pg.meta[li].version != versions[g] {
					t.Fatalf("iter %d: line %d at version %d, want %d", iter, g, pg.meta[li].version, versions[g])
				}
				if versions[g] == 0 {
					continue
				}
				want := make([]byte, lineBytes)
				tag := make([]mee.Tag, 1)
				if err := m.eng.SealLines(&s, want, plain[g*lineBytes:(g+1)*lineBytes], uint64(g), versions[g:g+1], tag); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(pg.ct[li*lineBytes:(li+1)*lineBytes], want) || pg.meta[li].tag != tag[0] {
					t.Fatalf("iter %d: line %d: ciphertext or tag differs from eager sealing", iter, g)
				}
			}
			pg.ct[off%pageBytes] ^= 0xff
			err := m.Read(off, make([]byte, 1))
			if versions[off/lineBytes] != 0 && !errors.Is(err, mee.ErrIntegrity) {
				t.Fatalf("iter %d: read of tampered line %d: err = %v, want ErrIntegrity", iter, off/lineBytes, err)
			}
		}
	}
}

func benchMemory(b *testing.B) *Memory {
	eng, err := mee.New()
	if err != nil {
		b.Fatal(err)
	}
	clk := cycles.New(simcfg.CPUHz)
	res, err := NewResidency(simcfg.DefaultEPCBytes, clk)
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(1<<20, res, eng, clk)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkMemoryWrite4K(b *testing.B) {
	m := benchMemory(b)
	buf := pattern(4096, 1)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Object-like placement: not line aligned, marching through pages.
		if err := m.Write((i%200)*4100+24, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemoryRead16(b *testing.B) {
	m := benchMemory(b)
	if err := m.Write(0, pattern(1<<20, 1)); err != nil {
		b.Fatal(err)
	}
	var hdr [16]byte
	b.ReportAllocs()
	b.SetBytes(int64(len(hdr)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Header-like reads: a few hot objects on different pages.
		if err := m.Read((i%8)*9000+40, hdr[:]); err != nil {
			b.Fatal(err)
		}
	}
}
