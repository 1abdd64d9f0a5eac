package epc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"montsalvat/internal/cycles"
	"montsalvat/internal/mee"
)

func testMemory(t *testing.T, size, epcBytes int) (*Memory, *Residency, *cycles.Clock) {
	t.Helper()
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i)
	}
	eng, err := mee.NewWithKey(key)
	if err != nil {
		t.Fatalf("mee.NewWithKey: %v", err)
	}
	clk := cycles.New(3.8e9)
	var res *Residency
	if epcBytes > 0 {
		res, err = NewResidency(epcBytes, clk)
		if err != nil {
			t.Fatalf("NewResidency: %v", err)
		}
	}
	m, err := New(size, res, eng, clk)
	if err != nil {
		t.Fatalf("epc.New: %v", err)
	}
	return m, res, clk
}

func TestReadWriteRoundTrip(t *testing.T) {
	m, _, _ := testMemory(t, 4096, 0)
	src := []byte("hello enclave world")
	if err := m.Write(100, src); err != nil {
		t.Fatalf("Write: %v", err)
	}
	dst := make([]byte, len(src))
	if err := m.Read(100, dst); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("Read = %q, want %q", dst, src)
	}
}

func TestUnwrittenMemoryReadsZero(t *testing.T) {
	m, _, _ := testMemory(t, 1024, 0)
	dst := make([]byte, 64)
	dst[0] = 0xff
	if err := m.Read(0, dst); err != nil {
		t.Fatalf("Read: %v", err)
	}
	for i, b := range dst {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestUnalignedAccess(t *testing.T) {
	m, _, _ := testMemory(t, 1024, 0)
	// Write spanning a line boundary at an odd offset.
	src := make([]byte, 130)
	for i := range src {
		src[i] = byte(i + 1)
	}
	if err := m.Write(61, src); err != nil {
		t.Fatalf("Write: %v", err)
	}
	dst := make([]byte, len(src))
	if err := m.Read(61, dst); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("unaligned round trip mismatch")
	}
	// Neighbouring bytes untouched.
	one := make([]byte, 1)
	if err := m.Read(60, one); err != nil {
		t.Fatal(err)
	}
	if one[0] != 0 {
		t.Fatalf("byte before write = %#x, want 0", one[0])
	}
}

func TestOverwritePreservesRest(t *testing.T) {
	m, _, _ := testMemory(t, 256, 0)
	if err := m.Write(0, bytes.Repeat([]byte{0xaa}, 128)); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(64, []byte{0xbb}); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 128)
	if err := m.Read(0, dst); err != nil {
		t.Fatal(err)
	}
	if dst[63] != 0xaa || dst[64] != 0xbb || dst[65] != 0xaa {
		t.Fatalf("overwrite leaked: %x %x %x", dst[63], dst[64], dst[65])
	}
}

func TestOutOfRange(t *testing.T) {
	m, _, _ := testMemory(t, 128, 0)
	if err := m.Write(120, make([]byte, 16)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Write out of range: err = %v, want ErrOutOfRange", err)
	}
	if err := m.Read(-1, make([]byte, 1)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Read negative offset: err = %v, want ErrOutOfRange", err)
	}
}

func TestGrowPreservesContents(t *testing.T) {
	m, _, _ := testMemory(t, 128, 0)
	src := []byte("persistent")
	if err := m.Write(3, src); err != nil {
		t.Fatal(err)
	}
	if err := m.Grow(4096); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if m.Size() < 4096 {
		t.Fatalf("Size() = %d, want >= 4096", m.Size())
	}
	dst := make([]byte, len(src))
	if err := m.Read(3, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("contents lost across Grow")
	}
	// Newly grown region is writable.
	if err := m.Write(4000, []byte{1, 2, 3}); err != nil {
		t.Fatalf("Write after grow: %v", err)
	}
}

func TestTamperDetected(t *testing.T) {
	m, _, _ := testMemory(t, 128, 0)
	if err := m.Write(0, bytes.Repeat([]byte{0x42}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := m.Tamper(10); err != nil {
		t.Fatalf("Tamper: %v", err)
	}
	err := m.Read(0, make([]byte, 64))
	if !errors.Is(err, mee.ErrIntegrity) {
		t.Fatalf("Read after tamper: err = %v, want ErrIntegrity", err)
	}
}

func TestPagingEvictsAndFaults(t *testing.T) {
	// 4 pages of EPC, 16 pages of memory: sweeping it twice must fault.
	const size = 16 * 4096
	m, res, clk := testMemory(t, size, 4*4096)
	buf := make([]byte, 4096)
	for sweep := 0; sweep < 2; sweep++ {
		for p := 0; p < 16; p++ {
			if err := m.Write(p*4096, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := res.Stats()
	if s.PageFaults < 32 {
		t.Fatalf("PageFaults = %d, want >= 32 (two full sweeps)", s.PageFaults)
	}
	if s.Evictions == 0 {
		t.Fatal("Evictions = 0, want > 0")
	}
	if s.ResidentPages > 4 {
		t.Fatalf("ResidentPages = %d, want <= 4", s.ResidentPages)
	}
	if clk.Total() == 0 {
		t.Fatal("no cycles charged for paging traffic")
	}
}

func TestResidencySharedAcrossMemories(t *testing.T) {
	key := make([]byte, 32)
	eng, err := mee.NewWithKey(key)
	if err != nil {
		t.Fatal(err)
	}
	clk := cycles.New(1e9)
	res, err := NewResidency(2*4096, clk)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := New(4*4096, res, eng, clk)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(4*4096, res, eng, clk)
	if err != nil {
		t.Fatal(err)
	}
	// Touch pages in both memories; the shared residency must cap the
	// combined resident set at 2 pages.
	for p := 0; p < 4; p++ {
		if err := m1.Write(p*4096, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if err := m2.Write(p*4096, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	s := res.Stats()
	if s.ResidentPages > 2 {
		t.Fatalf("ResidentPages = %d, want <= 2 across both memories", s.ResidentPages)
	}
	if s.Evictions == 0 {
		t.Fatal("expected evictions from shared residency pressure")
	}
}

func TestLRUKeepsHotPageResident(t *testing.T) {
	m, res, _ := testMemory(t, 8*4096, 2*4096)
	hot := make([]byte, 8)
	// Touch page 0 between every access of pages 1..7; page 0 must never
	// be evicted, so its fault count stays at 1.
	for p := 1; p < 8; p++ {
		if err := m.Read(0, hot); err != nil {
			t.Fatal(err)
		}
		if err := m.Read(p*4096, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	before := res.Stats().PageFaults
	if err := m.Read(0, hot); err != nil {
		t.Fatal(err)
	}
	if got := res.Stats().PageFaults; got != before {
		t.Fatalf("hot page faulted: faults %d -> %d", before, got)
	}
}

func TestChargesCyclesForTraffic(t *testing.T) {
	m, _, clk := testMemory(t, 1<<20, 0)
	if err := m.Write(0, make([]byte, 1<<16)); err != nil {
		t.Fatal(err)
	}
	if clk.Total() < 1<<16 {
		t.Fatalf("cycles charged = %d, want >= %d (1 byte/cycle)", clk.Total(), 1<<16)
	}
}

func TestNewValidation(t *testing.T) {
	eng, err := mee.New()
	if err != nil {
		t.Fatal(err)
	}
	clk := cycles.New(1e9)
	if _, err := New(-1, nil, eng, clk); err == nil {
		t.Fatal("New accepted negative size")
	}
	if _, err := New(10, nil, nil, clk); err == nil {
		t.Fatal("New accepted nil engine")
	}
	if _, err := New(10, nil, eng, nil); err == nil {
		t.Fatal("New accepted nil clock")
	}
	if _, err := NewResidency(100, clk); err == nil {
		t.Fatal("NewResidency accepted sub-page size")
	}
	if _, err := NewResidency(1<<20, nil); err == nil {
		t.Fatal("NewResidency accepted nil clock")
	}
}

// Property: random writes then reads behave like a plain byte array, even
// with paging enabled.
func TestQuickMirrorsPlainMemory(t *testing.T) {
	const size = 8 * 4096
	m, _, _ := testMemory(t, size, 2*4096)
	shadow := make([]byte, size)
	rng := rand.New(rand.NewSource(7))

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 16; i++ {
			off := r.Intn(size - 256)
			n := 1 + r.Intn(255)
			data := make([]byte, n)
			rng.Read(data)
			if err := m.Write(off, data); err != nil {
				return false
			}
			copy(shadow[off:], data)
		}
		off := r.Intn(size - 512)
		n := 1 + r.Intn(511)
		got := make([]byte, n)
		if err := m.Read(off, got); err != nil {
			return false
		}
		return bytes.Equal(got, shadow[off:off+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
