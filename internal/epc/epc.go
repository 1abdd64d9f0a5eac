// Package epc simulates the SGX enclave page cache.
//
// Enclave memory is a flat address space whose backing bytes are stored
// encrypted (paper §2.1: "All EPC pages in DRAM are encrypted and only
// decrypted by a memory encryption engine (MEE) when they are loaded
// into a CPU cache line"). Every Read and Write is charged MEE cycles at
// 64-byte cache-line granularity; the host AES work is done where its
// output can be used. A page keeps a plaintext shadow beside its
// ciphertext, and works like a write-back cache in front of the MEE: a
// Write updates the shadow and bumps each stored line's version, marking
// the line dirty, and a dirty line is sealed — encrypted and tagged under
// its current version — only when its ciphertext can be observed, which
// today is Tamper. An observer therefore sees exactly the ciphertext and
// tags that sealing every store at once would have left, and the MEE's
// counters count each stored line when it is stored. A Read is served
// from the shadow, except for lines whose ciphertext was changed behind
// the MEE's back: those it verifies and decrypts first.
//
// A Memory backs a 4 KB page (ciphertext, plaintext shadow, line
// metadata) on its first write; a never-written page reads as zeros and
// costs no host memory. Every charge is per access, never per backing byte.
//
// The usable EPC is limited (93.5 MB on the paper's machine, §6.1) and is
// shared by all memory regions of an enclave, so residency is tracked by a
// Residency object shared across Memory instances. When the resident set
// of 4 KB pages exceeds the limit, the least recently used page is evicted
// — the analog of the Linux SGX driver swapping pages between the EPC and
// regular DRAM, "at a significant cost" (§2.1). Each fault charges fixed
// eviction/load cycle costs on top of the crypto work.
package epc

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"montsalvat/internal/cycles"
	"montsalvat/internal/mee"
	"montsalvat/internal/simcfg"
)

const (
	lineBytes    = mee.LineBytes
	pageBytes    = simcfg.PageBytes
	linesPerPage = pageBytes / lineBytes
	// A page's stale and dirty lines are the bits of one uint64 each
	// (backing.stale, backing.dirty): this constant overflows, failing
	// the build, past 64 lines a page.
	_ = uint64(1) << (linesPerPage - 1)
)

// ErrOutOfRange is returned for accesses beyond the memory size.
var ErrOutOfRange = errors.New("epc: access out of range")

// ResidencyStats holds cumulative paging counters.
type ResidencyStats struct {
	// PageFaults counts accesses to non-resident pages.
	PageFaults uint64
	// Evictions counts pages written back to untrusted DRAM.
	Evictions uint64
	// ResidentPages is the current number of EPC-resident pages.
	ResidentPages int
	// CapacityPages is the maximum resident set.
	CapacityPages int
}

// Residency models the limited EPC resident set shared by all memory
// regions of one enclave. Like the memories it serves, it is
// owner-serialised: one owner serialises every access to all the
// memories that share it (in the product, the trusted runtime's heapMu
// guards both semispaces of its heap, the only enclave memories), so a
// page switch updates the LRU without a lock of its own. Stats is safe
// from any goroutine.
type Residency struct {
	clock       *cycles.Clock
	maxResident int
	lruHead     *lruNode
	lruTail     *lruNode

	// The counters Stats reads. evictions doubles as the eviction epoch
	// that validates the memories' MRU page filter: a repeated touch of
	// the same page may be skipped only while no eviction could have
	// displaced it.
	resident  atomic.Int64 // pages on the LRU list
	faults    atomic.Uint64
	evictions atomic.Uint64
}

// lruNode is one resident page. Its Memory's nodes slice points back at
// it, so a touch finds it by index.
type lruNode struct {
	mem        *Memory
	page       int
	prev, next *lruNode
}

// NewResidency creates a residency tracker for an EPC of the given size.
func NewResidency(epcBytes int, clock *cycles.Clock) (*Residency, error) {
	if epcBytes < pageBytes {
		return nil, fmt.Errorf("epc: EPC size %d smaller than one page", epcBytes)
	}
	if clock == nil {
		return nil, errors.New("epc: nil clock")
	}
	return &Residency{
		clock:       clock,
		maxResident: epcBytes / pageBytes,
	}, nil
}

// Stats returns a snapshot of the paging counters.
func (r *Residency) Stats() ResidencyStats {
	return ResidencyStats{
		PageFaults:    r.faults.Load(),
		Evictions:     r.evictions.Load(),
		ResidentPages: int(r.resident.Load()),
		CapacityPages: r.maxResident,
	}
}

// touch marks a page most-recently-used, charging fault/eviction costs.
func (r *Residency) touch(m *Memory, page int) {
	if node := m.nodes[page]; node != nil {
		r.moveFront(node)
		return
	}
	r.faults.Add(1)
	r.clock.Charge(simcfg.EPCPageLoadCycles)
	for r.resident.Load() >= int64(r.maxResident) {
		victim := r.lruTail
		if victim == nil {
			break
		}
		r.remove(victim)
		victim.mem.nodes[victim.page] = nil
		r.resident.Add(-1)
		r.evictions.Add(1)
		r.clock.Charge(simcfg.EPCPageEvictCycles)
	}
	node := &lruNode{mem: m, page: page}
	m.nodes[page] = node
	r.resident.Add(1)
	r.pushFront(node)
}

func (r *Residency) pushFront(n *lruNode) {
	n.prev = nil
	n.next = r.lruHead
	if r.lruHead != nil {
		r.lruHead.prev = n
	}
	r.lruHead = n
	if r.lruTail == nil {
		r.lruTail = n
	}
}

func (r *Residency) remove(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		r.lruHead = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		r.lruTail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (r *Residency) moveFront(n *lruNode) {
	if r.lruHead == n {
		return
	}
	r.remove(n)
	r.pushFront(n)
}

// lineMeta is the per-line state the MEE keeps outside the ciphertext.
type lineMeta struct {
	// version counts writes to the line (keystream freshness). Zero means
	// the line was never written: it reads as zero and has no ciphertext.
	version uint64
	// tag is the line's integrity tag under version, once the line is
	// sealed; a dirty line's tag is that of an older version.
	tag mee.Tag
}

// backing is one page's ciphertext, plaintext shadow and line metadata.
// A line is never both stale and dirty: a store that makes it dirty
// clears stale, and Tamper seals a dirty line before it changes it.
type backing struct {
	// stale has bit li set while pt does not hold what a read of line li
	// must return: the line was written and its ciphertext has been
	// changed behind the MEE's back (Tamper) since pt last matched it.
	// A read opens exactly those lines; every other line reads from pt,
	// and a read that finds no bit of its lines set reads no metadata.
	stale uint64
	// dirty has bit li set while pt holds the line's plaintext under its
	// current version but ct and tag do not yet: the line was stored and
	// has not been sealed since (see sealDirty).
	dirty uint64
	ct    [pageBytes]byte
	meta  [linesPerPage]lineMeta
	// pt is the page's plaintext: what a store wrote, or what the MEE
	// decrypted from the current (ct, version, tag), and zeros for a line
	// never written. Reads are served from it, so repeated reads of a hot
	// line do no AES work in the emulator; charged MEE cycles are the
	// same either way.
	pt [pageBytes]byte
}

// Memory is an encrypted, integrity-protected address space inside the
// EPC. It is owner-serialised, like the heap.Heap whose semispace it is:
// not safe for concurrent use, and Read, Write, Touch, Grow, Tamper and
// Size must not overlap. In the product the owner's lock is the world
// runtime's heapMu, which already wraps every isolate and heap call, so
// the data path takes one lock per heap call rather than one per memory
// access. The same owner serialises the Residency it shares with the
// enclave's other memories.
type Memory struct {
	eng   *mee.Engine
	clock *cycles.Clock
	// tab, when set (ChargeTo), holds back the MEE charge of every access
	// until its owner settles it.
	tab *cycles.Tab
	res *Residency // nil disables paging accounting

	size  int        // addressable bytes, in whole lines
	pages []*backing // page p's backing, nil until p is first written

	// Working memory of the MEE kernel, serialised with the accesses that
	// use it: a run never spans a page, so one page's worth of versions
	// and tags is enough.
	scratch  mee.Scratch
	versions [linesPerPage]uint64
	tags     [linesPerPage]mee.Tag

	// nodes[p] is the residency's LRU node of page p while the page is
	// resident. An access to another Memory of the same enclave may
	// evict a page of this one.
	nodes []*lruNode

	// MRU page filter: consecutive accesses to the same resident page
	// skip the shared residency LRU. Valid only while the residency's
	// eviction count is unchanged (guarded in touchPage).
	lastPage  int
	lastEvict uint64
}

// New creates an encrypted memory of the given size. res may be nil, in
// which case no paging costs are modelled (the region always fits).
func New(size int, res *Residency, eng *mee.Engine, clock *cycles.Clock) (*Memory, error) {
	if size < 0 {
		return nil, fmt.Errorf("epc: negative size %d", size)
	}
	if eng == nil {
		return nil, errors.New("epc: nil mee engine")
	}
	if clock == nil {
		return nil, errors.New("epc: nil clock")
	}
	m := &Memory{eng: eng, clock: clock, res: res, lastPage: -1}
	_ = m.Grow(size) // only extends the page table: it cannot fail
	return m, nil
}

// Size returns the addressable size in bytes.
func (m *Memory) Size() int { return m.size }

// ChargeTo makes the MEE charge of every later access wait on t until
// its owner settles it, instead of reaching the clock one access at a
// time. t must be a Tab on the memory's own clock, serialised by the
// memory's owner.
func (m *Memory) ChargeTo(t *cycles.Tab) { m.tab = t }

// charge charges the MEE cost of moving n bytes.
func (m *Memory) charge(n int) {
	if m.tab != nil {
		m.tab.ChargeBytes(n, simcfg.MEEBytesPerCycle)
		return
	}
	m.clock.ChargeBytes(n, simcfg.MEEBytesPerCycle)
}

// Read decrypts len(dst) bytes starting at off into dst.
func (m *Memory) Read(off int, dst []byte) error {
	if err := m.check(off, len(dst)); err != nil {
		return err
	}
	m.charge(len(dst))
	end := off + len(dst)
	if p := off / pageBytes; len(dst) > 0 && (end-1)/pageBytes == p {
		// Within one page, as a header, a word or a short payload is.
		m.touchPage(p)
		return m.readPage(p, off, dst)
	}
	for pos := off; pos < end; {
		stop := m.enterPage(pos, end)
		if err := m.readPage(pos/pageBytes, pos, dst[pos-off:stop-off]); err != nil {
			return err
		}
		pos = stop
	}
	return nil
}

// readPage reads dst at pos, which lies within page p: every run of stale
// lines is decrypted, then the page's share is copied out of the
// plaintext shadow in one piece.
func (m *Memory) readPage(p, pos int, dst []byte) error {
	pg := m.pages[p]
	if pg == nil {
		clear(dst)
		return nil
	}
	base := p * pageBytes
	first, last := (pos-base)/lineBytes, (pos+len(dst)-1-base)/lineBytes
	for li := first; li <= last; li++ {
		if !pg.isStale(li) {
			continue
		}
		run := li
		for li < last && pg.isStale(li+1) {
			li++
		}
		if err := m.openLines(p, run, li-run+1); err != nil {
			return err
		}
	}
	// A word and a header, most reads, copy inline rather than by a call.
	switch src := pg.pt[pos-base:]; len(dst) {
	case 8:
		*(*[8]byte)(dst) = *(*[8]byte)(src)
	case 16:
		*(*[16]byte)(dst) = *(*[16]byte)(src)
	default:
		copy(dst, src)
	}
	return nil
}

// isStale reports whether line li must be opened before pt serves it.
func (pg *backing) isStale(li int) bool { return pg.stale&(1<<li) != 0 }

// lineBits is the stale mask of the n lines from li on.
func lineBits(li, n int) uint64 { return (1<<n - 1) << li }

// Write stores src into the memory starting at off. A partial first or
// last line is handled read-modify-write, as a real cache does: a stale
// line is opened before it is patched. On return every touched line holds
// src in the plaintext shadow under a fresh version and is dirty; its
// ciphertext and tag catch up when they can be observed (sealDirty).
func (m *Memory) Write(off int, src []byte) error {
	if err := m.check(off, len(src)); err != nil {
		return err
	}
	m.charge(len(src))
	for pos, end := off, off+len(src); pos < end; {
		stop := m.enterPage(pos, end)
		if err := m.storePage(pos, src[pos-off:stop-off]); err != nil {
			return err
		}
		pos = stop
	}
	return nil
}

// Touch accounts for an access of n bytes at off exactly as Read or Write
// would — bounds check, MEE cycle charge, page residency in address order
// — and moves no bytes. It stands for a store whose bytes an earlier
// Write of the same call sequence has already put in place (the heap's
// fused allocate-and-initialise), so that the cycle ledger and the paging
// state cannot tell the two sequences apart.
func (m *Memory) Touch(off, n int) error {
	if err := m.check(off, n); err != nil {
		return err
	}
	m.charge(n)
	for pos, end := off, off+n; pos < end; {
		pos = m.enterPage(pos, end)
	}
	return nil
}

// Grow extends the address space to at least newSize bytes: only the
// page table grows, and contents are preserved. Growth models the enclave
// heap expanding within its configured bound; the caller enforces it.
func (m *Memory) Grow(newSize int) error {
	size := (newSize + lineBytes - 1) / lineBytes * lineBytes
	if size <= m.size {
		return nil
	}
	m.size = size
	n := (size + pageBytes - 1) / pageBytes
	m.pages = append(m.pages, make([]*backing, n-len(m.pages))...)
	if m.res != nil {
		m.nodes = append(m.nodes, make([]*lruNode, n-len(m.nodes))...)
	}
	return nil
}

// Tamper XORs a byte of the ciphertext backing store directly, bypassing
// the MEE — the simulation analog of a physical attacker flipping bits in
// DRAM. The page's dirty lines are sealed first, so the attacker sees the
// ciphertext of what was stored. A subsequent Read of that line fails
// integrity verification. A line never written has no ciphertext to
// verify and still reads zeros.
func (m *Memory) Tamper(off int) error {
	if off < 0 || off >= m.size {
		return ErrOutOfRange
	}
	p := off / pageBytes
	pg := m.pages[p]
	if pg == nil {
		return nil
	}
	if err := m.sealDirty(p); err != nil {
		return err
	}
	pg.ct[off%pageBytes] ^= 0xff
	if li := off % pageBytes / lineBytes; pg.meta[li].version != 0 {
		pg.stale |= lineBits(li, 1) // pt no longer matches ct
	}
	return nil
}

func (m *Memory) check(off, n int) error {
	if off < 0 || n < 0 || off+n > m.size {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfRange, off, n, m.size)
	}
	return nil
}

// enterPage makes the page holding pos resident and returns where the
// access [pos, end) leaves that page.
func (m *Memory) enterPage(pos, end int) int {
	page := pos / pageBytes
	m.touchPage(page)
	if stop := (page + 1) * pageBytes; stop < end {
		return stop
	}
	return end
}

// storePage writes src at pos; the range lies within one page.
func (m *Memory) storePage(pos int, src []byte) error {
	p := pos / pageBytes
	if m.pages[p] == nil {
		m.pages[p] = new(backing)
	}
	pos -= p * pageBytes
	if lo := pos % lineBytes; lo != 0 {
		n, err := m.patchLine(p, pos, src, lineBytes-lo)
		if err != nil {
			return err
		}
		pos, src = pos+n, src[n:]
	}
	if n := len(src) / lineBytes * lineBytes; n > 0 {
		copy(m.pages[p].pt[pos:pos+n], src)
		m.stored(p, pos/lineBytes, n/lineBytes)
		pos, src = pos+n, src[n:]
	}
	if len(src) > 0 {
		if _, err := m.patchLine(p, pos, src, lineBytes); err != nil {
			return err
		}
	}
	return nil
}

// patchLine stores up to max bytes of src into the middle of one line of
// page p, at pos within the page: the line's plaintext is brought up to
// date and patched.
func (m *Memory) patchLine(p, pos int, src []byte, max int) (int, error) {
	pg, li := m.pages[p], pos/lineBytes
	if pg.isStale(li) {
		if err := m.openLines(p, li, 1); err != nil {
			return 0, err
		}
	}
	if len(src) > max {
		src = src[:max]
	}
	copy(pg.pt[pos:], src)
	m.stored(p, li, 1)
	return len(src), nil
}

// stored records that the n lines of page p from its line li on now hold
// new plaintext in the shadow: each takes a fresh version and turns
// dirty, and the MEE counts them as encrypted.
func (m *Memory) stored(p, li, n int) {
	pg := m.pages[p]
	meta := pg.meta[li : li+n]
	for i := range meta {
		meta[i].version++
	}
	mask := lineBits(li, n)
	pg.dirty |= mask
	pg.stale &^= mask
	m.eng.CountEncrypted(n)
}

// sealDirty seals every dirty line of page p: each run of them is
// encrypted out of the plaintext shadow into the backing store, and
// tagged, under the lines' current versions.
func (m *Memory) sealDirty(p int) error {
	pg := m.pages[p]
	for d := pg.dirty; d != 0; {
		li := bits.TrailingZeros64(d)
		n := bits.TrailingZeros64(^(d >> li)) // the run of dirty lines from li
		meta := pg.meta[li : li+n]
		for i := range meta {
			m.versions[i] = meta[i].version
		}
		lo, hi := li*lineBytes, (li+n)*lineBytes
		if err := m.eng.SealLines(&m.scratch, pg.ct[lo:hi], pg.pt[lo:hi], uint64(p*linesPerPage+li), m.versions[:n], m.tags[:n]); err != nil {
			return err
		}
		for i := range meta {
			meta[i].tag = m.tags[i]
		}
		d &^= lineBits(li, n)
		pg.dirty = d
	}
	return nil
}

// openLines verifies and decrypts the n written lines of page p from its
// line li on into the plaintext shadow. Lines ahead of a failing one keep
// their memo.
func (m *Memory) openLines(p, li, n int) error {
	pg := m.pages[p]
	meta := pg.meta[li : li+n]
	for i := range meta {
		m.versions[i] = meta[i].version
		m.tags[i] = meta[i].tag
	}
	lo, hi := li*lineBytes, (li+n)*lineBytes
	done, err := m.eng.DecryptLines(&m.scratch, pg.pt[lo:hi], pg.ct[lo:hi], uint64(p*linesPerPage+li), m.versions[:n], m.tags[:n])
	pg.stale &^= lineBits(li, done)
	return err
}

func (m *Memory) touchPage(page int) {
	if m.res == nil {
		return
	}
	if page == m.lastPage && m.res.evictions.Load() == m.lastEvict {
		// Same page, no eviction since it was made MRU: it is still
		// resident and no fault can be due — skip the shared LRU.
		return
	}
	// Snapshot the epoch before touching: an eviction this touch causes
	// invalidates the filter conservatively.
	epoch := m.res.evictions.Load()
	m.res.touch(m, page)
	m.lastPage, m.lastEvict = page, epoch
}
