// Package heap implements the managed heap embedded in Montsalvat native
// images.
//
// GraalVM native images "embed a serial stop and copy GC" (paper §6.4);
// each isolate operates on a separate heap collected independently (§2.2).
// This package is that runtime component: a semispace heap with bump
// allocation, a Cheney stop-and-copy collector, a strong handle table (the
// analog of pinned/JNI references, used by the mirror–proxy registry), and
// weak references (the basis of the GC helper in §5.5).
//
// Objects are addressed by Addr values that are INVALIDATED by every
// collection; anything that must survive a collection — or any call that
// may allocate — must be held via a Handle or WeakRef. This matches the
// discipline of a real moving collector.
//
// An object is accessed through an Obj, the view one header read takes of
// it (View). The view carries the header fields that read validated, and
// every accessor checks its slot and data ranges against the view instead
// of reading the header again: a heap call reads and charges each
// object's header once, as compiled code does (DESIGN.md §17).
//
// A Heap and the Backend memories under it are owner-serialised: nothing
// in this package locks, and the owner (the world runtime's heapMu in the
// product) must keep every call on one heap from overlapping with any
// other.
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"
)

const (
	wordBytes   = 8
	headerBytes = 16
	// magic tags valid object headers so stale or corrupt addresses are
	// caught immediately instead of silently misreading memory.
	magic = 0xA5

	flagForwarded = 1 << 0

	// maxRefs is the largest reference-slot count the 16-bit header field
	// can record.
	maxRefs = 1<<16 - 1
)

// Addr is the address of an object in the current from-space. The zero
// Addr is the null reference. Addrs are invalidated by garbage collection.
type Addr uint64

// Handle is a GC-stable strong reference to an object. Objects reachable
// from a handle are never collected until the handle is released.
//
// A handle names a slot of the heap's handle table and the generation the
// slot had when the handle was issued: slot | generation<<32. Releasing a
// handle frees its slot for reuse and bumps the slot's generation, so a
// released (stale) handle fails with ErrBadHandle and never aliases the
// handle that reuses its slot. Generations start at 1, so no handle is 0.
type Handle uint64

func makeHandle(slot, gen uint32) Handle { return Handle(uint64(gen)<<32 | uint64(slot)) }

func (hd Handle) slot() uint32 { return uint32(hd) }
func (hd Handle) gen() uint32  { return uint32(hd >> 32) }

// handleSlot is one entry of the handle table. A free slot holds addr 0:
// a live handle always points at an object, and no object lives at 0.
// owners counts the holders of the handle (NewHandle's one, plus one per
// Retain); id is the name its owner gave the object (Identify). Both
// live on the host, beside the table, and reading them charges nothing.
type handleSlot struct {
	addr   Addr
	gen    uint32
	owners uint32
	id     int64
}

// WeakRef is a GC-stable weak reference: it does not keep its target
// alive, and reads as cleared once the target has been collected. This is
// the primitive the Montsalvat GC helper scans (§5.5).
//
// Like a Handle, a WeakRef names a slot of a table — the weak table — and
// the slot's generation: slot | generation<<32. A slot also carries the
// name its owner gave the referent (the proxy's identity hash), by which
// LiveWeak finds it. The collector fixes weak references up in from-space
// address order, so the order of its header reads, and with it the EPC
// paging order, follows the referents alone, not the order the weak
// references were made in or the slots they hold.
type WeakRef uint64

func makeWeak(slot, gen uint32) WeakRef { return WeakRef(uint64(gen)<<32 | uint64(slot)) }

func (w WeakRef) slot() uint32 { return uint32(w) }
func (w WeakRef) gen() uint32  { return uint32(w >> 32) }

// weakSlot is one entry of the weak table. addr is 0 once the referent
// has been collected, and in a free slot. id is the referent's name, and
// next (slot+1, 0 for none) links the slots registered under the same
// id, newest first, from the head weakIDs holds: two proxies made for
// one hash share a chain.
type weakSlot struct {
	addr Addr
	gen  uint32
	next uint32
	id   int64
}

// Obj is a validated view of one object: its address and the header
// fields one header read found behind the magic and bounds checks. The
// zero Obj is the null reference.
//
// A view is good for the heap call that took it, and only until the next
// allocation: an allocation may collect, which moves objects and
// overwrites their old headers with forwarding words. Callers take the
// view again after any allocation.
type Obj struct {
	addr    Addr
	classID int32
	nRefs   int
	size    int
}

// Addr returns the object's address (0 for the null view).
func (o Obj) Addr() Addr { return o.addr }

// ClassID returns the object's class identifier.
func (o Obj) ClassID() int32 { return o.classID }

// NumRefs returns the number of reference slots of the object.
func (o Obj) NumRefs() int { return o.nRefs }

// DataBytes returns the object's raw data payload size.
func (o Obj) DataBytes() int { return o.size - headerBytes - o.nRefs*wordBytes }

// Errors returned by heap operations.
var (
	ErrOutOfMemory    = errors.New("heap: out of memory")
	ErrBadAddress     = errors.New("heap: bad object address")
	ErrBadHandle      = errors.New("heap: unknown handle")
	ErrBadSlot        = errors.New("heap: reference slot out of range")
	ErrDataOutOfRange = errors.New("heap: data access out of range")
	ErrTooManyRefs    = errors.New("heap: too many reference slots")
)

// Stats describes heap and collector state.
type Stats struct {
	// Collections is the number of completed GC cycles.
	Collections uint64
	// ObjectsCopied and BytesCopied accumulate over all collections.
	ObjectsCopied uint64
	BytesCopied   uint64
	// LastPause and TotalPause are wall-clock collection times.
	LastPause  time.Duration
	TotalPause time.Duration
	// LiveBytes is the bytes in use after the last collection (or
	// allocated so far if none has run). AllocatedBytes counts all
	// allocation ever performed.
	LiveBytes      int
	AllocatedBytes uint64
	// SemiSize is the current semispace size; Handles counts live
	// handles, Weaks the weak references registered and not yet swept
	// (SweepWeaks), cleared or not.
	SemiSize int
	Handles  int
	Weaks    int
	// WeaksCleared counts the weak references collections have cleared:
	// a weak reader can find a dead referent only after it moves.
	WeaksCleared uint64
}

// Config sizes a heap.
type Config struct {
	// InitialSemi is the initial semispace size in bytes.
	InitialSemi int
	// MaxSemi bounds semispace growth (the enclave heap bound, §6.1).
	// It is at most 4 GiB (maxSemiLimit).
	MaxSemi int
}

// maxSemiLimit bounds Config.MaxSemi: an address fits in 32 bits, so
// Collect sorts its roots on one word, the address above the slot.
const maxSemiLimit = 1 << 32

// Heap is a semispace managed heap. It is not safe for concurrent use;
// its owner serialises every call (stop-the-world discipline).
type Heap struct {
	from     Backend
	to       Backend
	semiSize int
	maxSemi  int
	allocPtr int

	// handles is the handle table, indexed by slot; freeSlots lists the
	// released slots, reused last-in first-out.
	handles   []handleSlot
	freeSlots []uint32
	// weaks is the weak table, indexed by slot; freeWeaks lists its
	// swept slots, reused last-in first-out; weakIDs maps an id to the
	// newest slot registered under it; cleared lists the slots
	// collections have cleared since the last SweepWeaks, in the order
	// they were cleared.
	weaks     []weakSlot
	freeWeaks []uint32
	weakIDs   map[int64]uint32
	cleared   []uint32
	// roots is Collect's scratch: the live handle slots, then the live
	// weak slots, each keyed by its address above its slot, sorted.
	roots []uint64

	// Scratch for the bytes that cross the Backend interface (a buffer
	// declared in the caller would escape to the Go heap on every call):
	// one header, one reference slot, and one object image shared by
	// allocation and evacuation. Each is consumed before the next heap
	// operation starts; the isolate serialises those.
	hdr  [headerBytes]byte
	word [wordBytes]byte
	obj  []byte

	stats Stats
	// weaksCleared is Stats.WeaksCleared, kept apart so that WeaksCleared
	// can read it without the owner's serialisation.
	weaksCleared atomic.Uint64
}

// New creates a heap whose semispaces are produced by newBackend — plain
// memory for an untrusted heap, EPC-encrypted memory for an enclave heap.
func New(cfg Config, newBackend func(size int) (Backend, error)) (*Heap, error) {
	if cfg.InitialSemi <= headerBytes {
		return nil, fmt.Errorf("heap: initial semispace too small: %d", cfg.InitialSemi)
	}
	if cfg.MaxSemi < cfg.InitialSemi {
		cfg.MaxSemi = cfg.InitialSemi
	}
	if cfg.MaxSemi > maxSemiLimit {
		return nil, fmt.Errorf("heap: semispace bound %d above %d bytes", cfg.MaxSemi, maxSemiLimit)
	}
	if newBackend == nil {
		return nil, errors.New("heap: nil backend factory")
	}
	from, err := newBackend(cfg.InitialSemi)
	if err != nil {
		return nil, fmt.Errorf("heap: from-space: %w", err)
	}
	to, err := newBackend(cfg.InitialSemi)
	if err != nil {
		return nil, fmt.Errorf("heap: to-space: %w", err)
	}
	return &Heap{
		from:     from,
		to:       to,
		semiSize: cfg.InitialSemi,
		maxSemi:  cfg.MaxSemi,
		allocPtr: wordBytes, // Addr 0 is reserved for null.
		weakIDs:  make(map[int64]uint32),
	}, nil
}

// NewPlain creates a heap over ordinary process memory.
func NewPlain(cfg Config) (*Heap, error) {
	return New(cfg, func(size int) (Backend, error) {
		return NewPlainMemory(size), nil
	})
}

// Alloc allocates an object with the given class, number of reference
// slots, and raw data payload size. Reference slots are initialised to
// null and data to zero. Alloc may trigger a collection, invalidating all
// outstanding Addrs; callers holding raw Addrs must re-derive them from
// Handles afterwards.
func (h *Heap) Alloc(classID int32, nRefs int, dataBytes int) (Addr, error) {
	addr, img, err := h.reserve(classID, nRefs, dataBytes)
	if err != nil {
		return 0, err
	}
	clear(img[headerBytes:])
	if err := h.initObject(addr, img); err != nil {
		return 0, err
	}
	return addr, nil
}

// AllocData allocates an object without reference slots whose data area
// is the concatenation of parts, stores header and data in a single pass
// over the backing memory, and returns the object's view. To the cycle
// ledger and the EPC paging state it is Alloc, one View of the new
// object, and one WriteData per part against that view: the same header
// read and range checks run, and the same charges and page touches are
// issued in the same order (Backend.Touch stands in for each part's
// store). Only the second encryption of every line is saved.
func (h *Heap) AllocData(classID int32, parts ...[]byte) (Obj, error) {
	dataBytes := 0
	for _, p := range parts {
		dataBytes += len(p)
	}
	addr, img, err := h.reserve(classID, 0, dataBytes)
	if err != nil {
		return Obj{}, err
	}
	data := img[headerBytes:]
	for _, p := range parts {
		data = data[copy(data, p):]
	}
	if err := h.initObject(addr, img); err != nil {
		return Obj{}, err
	}
	o, err := h.View(addr)
	if err != nil {
		return Obj{}, err
	}
	off := 0
	for _, p := range parts {
		base, err := dataOff(o, off, len(p))
		if err != nil {
			return Obj{}, err
		}
		if err := h.from.Touch(base, len(p)); err != nil {
			return Obj{}, err
		}
		off += len(p)
	}
	return o, nil
}

// reserve makes room for an object (collecting and growing as needed),
// bumps the allocation pointer and returns the object's address and its
// image in the heap's scratch: the header is filled in, the rest is for
// the caller to set.
func (h *Heap) reserve(classID int32, nRefs int, dataBytes int) (Addr, []byte, error) {
	if nRefs < 0 || dataBytes < 0 {
		return 0, nil, fmt.Errorf("heap: invalid allocation: nRefs=%d dataBytes=%d", nRefs, dataBytes)
	}
	if nRefs > maxRefs {
		return 0, nil, fmt.Errorf("%w: %d, header holds at most %d", ErrTooManyRefs, nRefs, maxRefs)
	}
	// Sizes are exact (no alignment padding) so DataBytes reports the
	// requested payload size; the simulated memory handles any offset.
	size := headerBytes + nRefs*wordBytes + dataBytes
	if h.allocPtr+size > h.semiSize {
		if err := h.Collect(); err != nil {
			return 0, nil, err
		}
		for h.allocPtr+size > h.semiSize {
			if err := h.grow(); err != nil {
				return 0, nil, err
			}
		}
	}
	addr := Addr(h.allocPtr)
	h.allocPtr += size
	h.stats.AllocatedBytes += uint64(size)
	h.stats.LiveBytes = h.allocPtr

	img := h.image(size)
	putHeader(img, classID, uint16(nRefs), 0, uint64(size))
	return addr, img, nil
}

func (h *Heap) initObject(addr Addr, img []byte) error {
	if err := h.from.Write(int(addr), img); err != nil {
		return fmt.Errorf("heap: init object: %w", err)
	}
	return nil
}

// image returns the object scratch sized to n bytes, contents unspecified.
func (h *Heap) image(n int) []byte {
	if cap(h.obj) < n {
		h.obj = make([]byte, n)
	}
	return h.obj[:n]
}

// View reads and validates the header of the object at addr — the one
// header read a heap call makes per object — and returns the view every
// other accessor works against.
func (h *Heap) View(addr Addr) (Obj, error) {
	w0, w1, err := h.header(addr)
	if err != nil {
		return Obj{}, err
	}
	return Obj{addr: addr, classID: int32(w0 >> 32), nRefs: int(uint16(w0 >> 16)), size: int(w1)}, nil
}

// GetRef reads reference slot i of the object o.
func (h *Heap) GetRef(o Obj, i int) (Addr, error) {
	off, err := refOff(o, i)
	if err != nil {
		return 0, err
	}
	if err := h.from.Read(off, h.word[:]); err != nil {
		return 0, err
	}
	return Addr(binary.LittleEndian.Uint64(h.word[:])), nil
}

// SetRef writes reference slot i of the object o to point at target; the
// null view stores null.
func (h *Heap) SetRef(o Obj, i int, target Obj) error {
	off, err := refOff(o, i)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(h.word[:], uint64(target.addr))
	return h.from.Write(off, h.word[:])
}

// ReadData copies len(dst) bytes of o's raw payload at offset off into
// dst.
func (h *Heap) ReadData(o Obj, off int, dst []byte) error {
	base, err := dataOff(o, off, len(dst))
	if err != nil {
		return err
	}
	return h.from.Read(base, dst)
}

// WriteData copies src into o's raw payload at offset off.
func (h *Heap) WriteData(o Obj, off int, src []byte) error {
	base, err := dataOff(o, off, len(src))
	if err != nil {
		return err
	}
	return h.from.Write(base, src)
}

// NewHandle registers a strong reference to the object o, which its
// owner names id (the isolate's identity hash; see Identify).
func (h *Heap) NewHandle(o Obj, id int64) (Handle, error) {
	if o.addr == 0 {
		return 0, fmt.Errorf("%w: handle to null", ErrBadAddress)
	}
	var slot uint32
	if n := len(h.freeSlots); n > 0 {
		slot = h.freeSlots[n-1]
		h.freeSlots = h.freeSlots[:n-1]
	} else {
		slot = uint32(len(h.handles))
		h.handles = append(h.handles, handleSlot{gen: 1})
	}
	s := &h.handles[slot]
	s.addr, s.owners, s.id = o.addr, 1, id
	return makeHandle(slot, s.gen), nil
}

// Identify returns the live handle whose low 48 bits are short — its
// slot and the low 16 bits of its generation — when its owner named the
// object id. It reads the handle table only, never the object, so it
// charges nothing. A handle released and reissued to another object
// fails on id whatever the generation reads, so a short generation that
// wrapped on a busy slot cannot alias.
func (h *Heap) Identify(short uint64, id int64) (Handle, bool) {
	i := uint32(short)
	if int(i) >= len(h.handles) {
		return 0, false
	}
	s := &h.handles[i]
	if s.addr == 0 || s.id != id || uint16(s.gen) != uint16(short>>32) {
		return 0, false
	}
	return makeHandle(i, s.gen), true
}

// Retain adds an owner to a live handle: it takes one more Release to
// drop.
func (h *Heap) Retain(hd Handle) error {
	s, err := h.lookup(hd)
	if err != nil {
		return err
	}
	s.owners++
	return nil
}

// lookup returns the table slot of a live handle.
func (h *Heap) lookup(hd Handle) (*handleSlot, error) {
	if i := hd.slot(); int(i) < len(h.handles) {
		if s := &h.handles[i]; s.gen == hd.gen() && s.addr != 0 {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w: %#x", ErrBadHandle, uint64(hd))
}

// Deref resolves a handle to the object's current address.
func (h *Heap) Deref(hd Handle) (Addr, error) {
	s, err := h.lookup(hd)
	if err != nil {
		return 0, err
	}
	return s.addr, nil
}

// Release drops one owner of a strong handle, and the handle with its
// last owner. Releasing an unknown or already released handle is an
// error.
func (h *Heap) Release(hd Handle) error {
	s, err := h.lookup(hd)
	if err != nil {
		return err
	}
	if s.owners--; s.owners > 0 {
		return nil
	}
	s.addr = 0
	if s.gen++; s.gen == 0 {
		s.gen = 1
	}
	h.freeSlots = append(h.freeSlots, hd.slot())
	return nil
}

// NewWeak registers a weak reference to the object o, which its owner
// names id (the isolate's identity hash; see LiveWeak).
func (h *Heap) NewWeak(o Obj, id int64) (WeakRef, error) {
	if o.addr == 0 {
		return 0, fmt.Errorf("%w: weak reference to null", ErrBadAddress)
	}
	var slot uint32
	if n := len(h.freeWeaks); n > 0 {
		slot = h.freeWeaks[n-1]
		h.freeWeaks = h.freeWeaks[:n-1]
	} else {
		slot = uint32(len(h.weaks))
		h.weaks = append(h.weaks, weakSlot{gen: 1})
	}
	s := &h.weaks[slot]
	s.addr, s.id, s.next = o.addr, id, 0
	if head, ok := h.weakIDs[id]; ok {
		s.next = head + 1
	}
	h.weakIDs[id] = slot
	return makeWeak(slot, s.gen), nil
}

// LiveWeak returns the current address of a live referent its owner
// named id: one map probe, then the chain of the slots registered under
// id, which holds more than one only when two were made for one id.
// It reads the weak table only, never the object, so it charges nothing.
func (h *Heap) LiveWeak(id int64) (Addr, bool) {
	i, ok := h.weakIDs[id]
	for ok {
		s := &h.weaks[i]
		if s.addr != 0 {
			return s.addr, true
		}
		i, ok = s.next-1, s.next != 0
	}
	return 0, false
}

// SweepWeaks appends to dead the ids of the weak references collections
// have cleared since the last sweep, in the order they were cleared
// (from-space address order within each collection), frees their slots
// for reuse under a new generation, and returns dead.
func (h *Heap) SweepWeaks(dead []int64) []int64 {
	for _, i := range h.cleared {
		s := &h.weaks[i]
		dead = append(dead, s.id)
		h.unlinkWeak(i)
		s.next, s.id = 0, 0
		if s.gen++; s.gen == 0 {
			s.gen = 1
		}
		h.freeWeaks = append(h.freeWeaks, i)
	}
	h.cleared = h.cleared[:0]
	return dead
}

// unlinkWeak takes slot i out of its id's chain.
func (h *Heap) unlinkWeak(i uint32) {
	s := &h.weaks[i]
	p := h.weakIDs[s.id]
	if p == i {
		if s.next == 0 {
			delete(h.weakIDs, s.id)
		} else {
			h.weakIDs[s.id] = s.next - 1
		}
		return
	}
	for h.weaks[p].next != i+1 {
		p = h.weaks[p].next - 1
	}
	h.weaks[p].next = s.next
}

// Stats returns a snapshot of collector statistics.
func (h *Heap) Stats() Stats {
	s := h.stats
	s.LiveBytes = h.allocPtr
	s.SemiSize = h.semiSize
	s.Handles = len(h.handles) - len(h.freeSlots)
	s.Weaks = len(h.weaks) - len(h.freeWeaks)
	s.WeaksCleared = h.weaksCleared.Load()
	return s
}

// WeaksCleared returns Stats().WeaksCleared. Unlike every other method,
// it may be called concurrently with the owner's calls.
func (h *Heap) WeaksCleared() uint64 { return h.weaksCleared.Load() }

// Collect runs one stop-and-copy cycle: objects reachable from the handle
// table are evacuated to to-space (Cheney's algorithm), weak references to
// unreached objects are cleared, and the spaces are flipped.
//
// Roots evacuate in from-space address order, each object once: the
// handles to one object share its new address, and the object's header
// is read once. Weak referents are fixed up the same way, after the
// scan. To-space layout, and every header read and page touch of a
// collection, are a function of the set of live roots, the set of weak
// referents and the object graph alone — not of how many handles or weak
// references name an object, the order they were made in, nor the slots
// they hold.
func (h *Heap) Collect() error {
	start := time.Now()

	// Pre-grow if occupancy is high so that repeated collections are not
	// needed for a single large allocation burst.
	if h.allocPtr > h.semiSize*3/4 && h.semiSize < h.maxSemi {
		if err := h.growTo(min(h.semiSize*2, h.maxSemi)); err != nil {
			return err
		}
	}

	scan := wordBytes
	free := wordBytes

	// Evacuate roots in address order.
	h.roots = h.roots[:0]
	for i, s := range h.handles {
		if s.addr != 0 {
			h.roots = append(h.roots, uint64(s.addr)<<32|uint64(i))
		}
	}
	slices.Sort(h.roots)
	var last, moved Addr
	for _, r := range h.roots {
		if addr := Addr(r >> 32); addr != last {
			last = addr
			na, nf, err := h.evacuate(addr, free)
			if err != nil {
				return err
			}
			moved, free = na, nf
		}
		h.handles[uint32(r)].addr = moved
	}

	// Cheney scan of to-space.
	for scan < free {
		w0, w1, err := h.headerIn(h.to, Addr(scan))
		if err != nil {
			return fmt.Errorf("heap: scan: %w", err)
		}
		nRefs := int(uint16(w0 >> 16))
		size := int(w1)
		for i := 0; i < nRefs; i++ {
			slotOff := scan + headerBytes + i*wordBytes
			if err := h.to.Read(slotOff, h.word[:]); err != nil {
				return err
			}
			target := Addr(binary.LittleEndian.Uint64(h.word[:]))
			if target == 0 {
				continue
			}
			na, nf, err := h.evacuate(target, free)
			if err != nil {
				return err
			}
			free = nf
			binary.LittleEndian.PutUint64(h.word[:], uint64(na))
			if err := h.to.Write(slotOff, h.word[:]); err != nil {
				return err
			}
		}
		scan += size
	}

	// Fix up weak references in address order, each referent's header
	// read once: forwarded referents are updated, unreached ones cleared.
	h.roots = h.roots[:0]
	for i, s := range h.weaks {
		if s.addr != 0 {
			h.roots = append(h.roots, uint64(s.addr)<<32|uint64(i))
		}
	}
	slices.Sort(h.roots)
	last, moved = 0, 0
	cleared := len(h.cleared)
	for _, r := range h.roots {
		if addr := Addr(r >> 32); addr != last {
			last = addr
			w0, w1, err := h.header(addr)
			if err != nil {
				return fmt.Errorf("heap: weak fixup: %w", err)
			}
			moved = 0
			if w0&uint64(flagForwarded) != 0 {
				moved = Addr(w1)
			}
		}
		h.weaks[uint32(r)].addr = moved
		if moved == 0 {
			h.cleared = append(h.cleared, uint32(r))
		}
	}
	h.weaksCleared.Add(uint64(len(h.cleared) - cleared))

	// Flip.
	h.from, h.to = h.to, h.from
	h.allocPtr = free
	if h.to.Size() < h.semiSize {
		if err := h.to.Grow(h.semiSize); err != nil {
			return err
		}
	}

	pause := time.Since(start)
	h.stats.Collections++
	h.stats.LastPause = pause
	h.stats.TotalPause += pause
	h.stats.LiveBytes = h.allocPtr
	return nil
}

// evacuate copies the object at addr (in from-space) to to-space unless it
// has already been forwarded, and returns its new address plus the updated
// free pointer.
func (h *Heap) evacuate(addr Addr, free int) (Addr, int, error) {
	w0, w1, err := h.header(addr)
	if err != nil {
		return 0, free, fmt.Errorf("heap: evacuate %#x: %w", uint64(addr), err)
	}
	if w0&uint64(flagForwarded) != 0 {
		return Addr(w1), free, nil
	}
	size := int(w1)
	buf := h.image(size)
	if err := h.from.Read(int(addr), buf); err != nil {
		return 0, free, err
	}
	if free+size > h.to.Size() {
		return 0, free, fmt.Errorf("%w: to-space exhausted during collection", ErrOutOfMemory)
	}
	if err := h.to.Write(free, buf); err != nil {
		return 0, free, err
	}
	// Install forwarding pointer in from-space.
	binary.LittleEndian.PutUint64(h.hdr[0:8], w0|uint64(flagForwarded))
	binary.LittleEndian.PutUint64(h.hdr[8:16], uint64(free))
	if err := h.from.Write(int(addr), h.hdr[:]); err != nil {
		return 0, free, err
	}
	h.stats.ObjectsCopied++
	h.stats.BytesCopied += uint64(size)
	return Addr(free), free + size, nil
}

func (h *Heap) grow() error {
	if h.semiSize >= h.maxSemi {
		return fmt.Errorf("%w: semispace at maximum %d bytes", ErrOutOfMemory, h.maxSemi)
	}
	if err := h.growTo(min(h.semiSize*2, h.maxSemi)); err != nil {
		return err
	}
	return h.Collect()
}

// growTo enlarges the to-space (and records the new semispace size) so the
// next collection evacuates into the larger space.
func (h *Heap) growTo(newSize int) error {
	if newSize <= h.semiSize {
		return nil
	}
	if err := h.to.Grow(newSize); err != nil {
		return err
	}
	h.semiSize = newSize
	return nil
}

func (h *Heap) header(addr Addr) (uint64, uint64, error) {
	return h.headerIn(h.from, addr)
}

func (h *Heap) headerIn(b Backend, addr Addr) (uint64, uint64, error) {
	if addr == 0 || int(addr)+headerBytes > b.Size() {
		return 0, 0, fmt.Errorf("%w: %#x", ErrBadAddress, uint64(addr))
	}
	if err := b.Read(int(addr), h.hdr[:]); err != nil {
		return 0, 0, err
	}
	w0 := binary.LittleEndian.Uint64(h.hdr[0:8])
	w1 := binary.LittleEndian.Uint64(h.hdr[8:16])
	if byte(w0>>8) != magic {
		return 0, 0, fmt.Errorf("%w: no object at %#x", ErrBadAddress, uint64(addr))
	}
	return w0, w1, nil
}

// refOff checks slot i against o's validated header and returns the
// slot's offset.
func refOff(o Obj, i int) (int, error) {
	if o.addr == 0 {
		return 0, fmt.Errorf("%w: null object", ErrBadAddress)
	}
	if i < 0 || i >= o.nRefs {
		return 0, fmt.Errorf("%w: slot %d of %d", ErrBadSlot, i, o.nRefs)
	}
	return int(o.addr) + headerBytes + i*wordBytes, nil
}

// dataOff checks the data range [off, off+n) against o's validated header
// and returns its offset.
func dataOff(o Obj, off, n int) (int, error) {
	if o.addr == 0 {
		return 0, fmt.Errorf("%w: null object", ErrBadAddress)
	}
	if dataBytes := o.DataBytes(); off < 0 || n < 0 || off+n > dataBytes {
		return 0, fmt.Errorf("%w: off=%d len=%d data=%d", ErrDataOutOfRange, off, n, dataBytes)
	}
	return int(o.addr) + headerBytes + o.nRefs*wordBytes + off, nil
}

// putHeader encodes an object header into buf:
// word0 = classID<<32 | nRefs<<16 | magic<<8 | flags, word1 = size.
func putHeader(buf []byte, classID int32, nRefs uint16, flags uint8, size uint64) {
	w0 := uint64(uint32(classID))<<32 | uint64(nRefs)<<16 | uint64(magic)<<8 | uint64(flags)
	binary.LittleEndian.PutUint64(buf[0:8], w0)
	binary.LittleEndian.PutUint64(buf[8:16], size)
}
