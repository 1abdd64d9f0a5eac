package world

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"montsalvat/internal/boundary"
	"montsalvat/internal/classmodel"
	"montsalvat/internal/cycles"
	"montsalvat/internal/edl"
	"montsalvat/internal/heap"
	"montsalvat/internal/image"
	"montsalvat/internal/isolate"
	"montsalvat/internal/lockrank"
	"montsalvat/internal/registry"
	"montsalvat/internal/ring"
	"montsalvat/internal/sgx"
	"montsalvat/internal/shim"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/transform"
	"montsalvat/internal/wire"
)

// maxNeutralDepth bounds recursive by-value serialization of neutral
// objects (cyclic neutral graphs cannot be copied by value).
const maxNeutralDepth = 32

// RuntimeStats counts per-runtime activity.
type RuntimeStats struct {
	// RemoteCallsOut counts proxy invocations leaving this runtime.
	RemoteCallsOut uint64
	// ProxiesCreated counts proxy instances materialised locally.
	ProxiesCreated uint64
	// MarshalledBytes counts serialized argument/result traffic.
	MarshalledBytes uint64
	// RegistrySize and WeakListLen snapshot the GC-sync structures: the
	// mirrors registered here, and the proxies living here that the
	// heap weak-tracks (heap.Stats.Weaks).
	RegistrySize int
	WeakListLen  int
}

// SweepStats describes the GC helper's sweep activity over one runtime's
// weak-tracked proxies: how often it ran, how much it reclaimed, and
// when it last fired.
type SweepStats struct {
	// Sweeps counts completed sweeps (GC-helper steps plus explicit
	// SweepOnce calls).
	Sweeps uint64
	// Released is the total number of dead proxies whose mirrors were
	// released in the opposite registry.
	Released uint64
	// LastReleased is the dead-proxy count of the most recent sweep.
	LastReleased int
	// LastSweep is when the most recent sweep completed (zero until the
	// first sweep).
	LastSweep time.Time
}

// Runtime is one side of the partitioned application: an isolate loaded
// from a native image plus the RMI bookkeeping of §5.2/§5.5.
type Runtime struct {
	w       *World
	name    string
	trusted bool
	// peer, encl and rings are the rest of the generation this runtime
	// was built in: the opposite runtime of a partitioned world (nil
	// otherwise), the enclave (nil in ModeNoSGX) and the ring group this
	// runtime's outgoing calls ride (nil unless Config.Rings). The world
	// sets them while it builds the generation, before either runtime is
	// published, and never writes them again, so the call path reads
	// them without World.stateMu: a call in flight when Kill swaps the
	// world's guts keeps crossing into its own generation, whose
	// destroyed enclave and stopped rings refuse it, typed.
	peer  *Runtime
	encl  *sgx.Enclave
	rings *ring.Group
	img   *image.Image
	iso   *isolate.Isolate
	reg   *registry.Registry // mirrors for proxies living in the opposite runtime
	fs    shim.FS
	// queue batches this runtime's outbound result-independent calls
	// (nil unless partitioned; active only with Config.Batching).
	queue *boundary.Queue[*Lane]

	// heapMu is the narrow isolate/heap lock of the concurrent crossing
	// engine: it serialises actual heap mutation (allocation — which may
	// trigger a collection — field access, GC, weak dereference) and
	// nothing else. It is never held across a boundary transition, while
	// calling into the opposite runtime, or around a registry mutation.
	// Handles are GC-stable and may cross heapMu critical sections; raw
	// heap addresses may not (a collection between sections moves
	// objects). It is the one lock of the trusted heap
	// path: the isolate, the heap and the heap's epc.Memory semispaces
	// are owner-serialised and take none of their own, so every call
	// into them must hold it.
	heapMu lockrank.Mutex
	// tab holds the MEE charges of the heap accesses made under heapMu
	// until unlockHeap settles them: each heap critical section puts its
	// charges on the clock at once, so outside the sections the ledger
	// reads exactly as if every access had charged it.
	tab *cycles.Tab
	// pinMu guards pins, the permanent roots (static-field analog):
	// identity hash → the pinned handle, of which the pin holds one owner,
	// and its pin count. pinned is len(pins), read without the lock to
	// skip the lookup while nothing is pinned. pinMu is taken before
	// heapMu.
	pinMu  lockrank.Mutex
	pins   map[int64]pin
	pinned atomic.Int32
	// frames recycles the activation records of bodies run in this
	// runtime (see frame).
	frames sync.Pool

	// links caches what is fixed once the images are built, per (class,
	// method): see link. Readers load the map and look up; a miss copies
	// the map under linkMu and publishes the copy. hot fronts the map: a
	// direct-mapped array of the links last looked up, indexed by a hash of
	// the two names' lengths and end bytes (linkSlot), so a hit compares
	// two strings instead of hashing them.
	links  atomic.Pointer[map[classmodel.MethodRef]*link]
	linkMu sync.Mutex
	hot    [linkSlots]atomic.Pointer[link]
	// hotDecls fronts the image's class map the same way, for classDecl.
	hotDecls [declSlots]atomic.Pointer[classmodel.Class]

	remoteOut  atomic.Uint64
	proxiesNew atomic.Uint64
	marshalled atomic.Uint64

	// The routes this runtime's outgoing calls took (see cross and
	// rode). Like queue they belong to the generation, so Restart starts
	// them at zero.
	fullCalls     atomic.Uint64
	laneCalls     atomic.Uint64
	ringCalls     atomic.Uint64
	ringFallbacks atomic.Uint64
	ringOversize  atomic.Uint64

	// sweepMu guards the helper-sweep statistics (sweeps and stats
	// readers race).
	sweepMu sync.Mutex
	sweeps  SweepStats
	// swept is the heap's WeaksCleared as of the GC helper's last step
	// on this runtime; it only grows.
	swept atomic.Uint64
}

// recordSweep accounts one completed sweep and the number of dead
// proxies it found.
func (rt *Runtime) recordSweep(dead int) {
	rt.sweepMu.Lock()
	rt.sweeps.Sweeps++
	rt.sweeps.Released += uint64(dead)
	rt.sweeps.LastReleased = dead
	rt.sweeps.LastSweep = time.Now()
	rt.sweepMu.Unlock()
}

// sweepDue reports whether the collector has cleared a weak reference
// since the GC helper's last step here, and takes the step's turn: of
// concurrent callers, one sees each clearing, and a caller that sees
// none has taken no lock.
func (rt *Runtime) sweepDue() bool {
	n := rt.iso.Heap().WeaksCleared()
	for old := rt.swept.Load(); old < n; old = rt.swept.Load() {
		if rt.swept.CompareAndSwap(old, n) {
			return true
		}
	}
	return false
}

// SweepStats snapshots the runtime's GC-helper sweep statistics.
func (rt *Runtime) SweepStats() SweepStats {
	rt.sweepMu.Lock()
	defer rt.sweepMu.Unlock()
	return rt.sweeps
}

func newRuntime(w *World, name string, trusted bool, img *image.Image, h *heap.Heap, tab *cycles.Tab) (*Runtime, error) {
	iso, err := isolate.New(h, w.nextHash)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		w:       w,
		name:    name,
		trusted: trusted,
		img:     img,
		iso:     iso,
		reg:     registry.New(h),
		pins:    make(map[int64]pin),
		tab:     tab,
	}
	rt.frames.New = func() any { return &frame{rt: rt} }
	rt.pinMu.SetRank(lockrank.RankWorldPin, "world."+name+".pinMu")
	rt.heapMu.SetRank(lockrank.RankWorldHeap, "world."+name+".heapMu")
	// Registry strong-handle drops run outside every registry shard lock
	// (the registry defers them), so taking the heap lock here cannot
	// deadlock against the shard locks. Callers therefore must not hold
	// heapMu across mutating registry calls (Export/Release).
	rt.reg.SetReleaser(func(hd heap.Handle) error {
		rt.heapMu.Lock()
		defer rt.unlockHeap()
		return rt.iso.Release(hd)
	})
	for _, c := range img.Classes() {
		if classmodel.IsBuiltin(c.Name) {
			continue
		}
		id, err := img.ClassID(c.Name)
		if err != nil {
			return nil, err
		}
		if err := iso.RegisterClass(c, id); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// Image returns the loaded native image.
func (rt *Runtime) Image() *image.Image { return rt.img }

// Registry returns the runtime's mirror–proxy registry.
func (rt *Runtime) Registry() *registry.Registry { return rt.reg }

// Collect forces a stop-and-copy GC cycle on the runtime's heap, then
// runs the world's GC-helper step.
func (rt *Runtime) Collect() error {
	defer rt.w.gcStep(rt)
	rt.heapMu.Lock()
	defer rt.unlockHeap()
	return rt.iso.Collect()
}

// HeapStats snapshots the heap statistics.
func (rt *Runtime) HeapStats() heap.Stats {
	rt.heapMu.Lock()
	defer rt.unlockHeap()
	return rt.iso.Heap().Stats()
}

// Stats snapshots the runtime counters.
func (rt *Runtime) Stats() RuntimeStats {
	return RuntimeStats{
		RemoteCallsOut:  rt.remoteOut.Load(),
		ProxiesCreated:  rt.proxiesNew.Load(),
		MarshalledBytes: rt.marshalled.Load(),
		RegistrySize:    rt.reg.Size(),
		WeakListLen:     rt.HeapStats().Weaks,
	}
}

// pin is a pinned object's handle and its pin count.
type pin struct {
	handle heap.Handle
	n      int
}

// Pin adds a permanent strong root for the object behind a ref — the
// analog of storing it in a static field. The object must be live where
// Pin can find it: behind the handle the ref carries (an object a frame
// holds, an element a body read with List.get), already pinned, or in
// the registry or the heap's weak table. A ref whose handle has gone, or that
// never carried one, is found by its identity hash only in those three;
// a frame's handles are its own.
func (rt *Runtime) Pin(v wire.Value) error {
	_, hash, ok := v.AsRef()
	if !ok {
		return ErrNotRef
	}
	rt.pinMu.Lock()
	defer rt.pinMu.Unlock()
	if p, ok := rt.pins[hash]; ok {
		p.n++
		rt.pins[hash] = p
		return nil
	}
	rt.heapMu.Lock()
	h, ok := rt.iso.Heap().Identify(v.Handle(), hash)
	var err error
	if ok {
		err = rt.iso.Heap().Retain(h)
	} else {
		h, err = rt.fresh(hash)
	}
	rt.unlockHeap()
	if err != nil {
		return err
	}
	rt.pins[hash] = pin{handle: h, n: 1}
	rt.pinned.Add(1)
	return nil
}

// Unpin removes one permanent retention added by Pin.
func (rt *Runtime) Unpin(v wire.Value) error {
	_, hash, ok := v.AsRef()
	if !ok {
		return ErrNotRef
	}
	rt.pinMu.Lock()
	defer rt.pinMu.Unlock()
	p, ok := rt.pins[hash]
	switch {
	case !ok:
		return fmt.Errorf("%w: %d not pinned", ErrNoSuchObject, hash)
	case p.n > 1:
		p.n--
		rt.pins[hash] = p
		return nil
	}
	delete(rt.pins, hash)
	rt.pinned.Add(-1)
	return rt.release(p.handle)
}

// PinNamed pins the object behind ref and names it in ns, returning its
// handle there — how a gateway session hands an object to a remote
// client. An object ns already names keeps its
// canonical handle and the duplicate pin is dropped, so every live handle
// owns exactly one retention. A drained ns keeps nothing and returns
// handle 0; each caller maps that to its own closed error.
func (rt *Runtime) PinNamed(ns *registry.Namespace, ref wire.Value) (int64, error) {
	class, hash, _ := ref.AsRef()
	if err := rt.Pin(ref); err != nil {
		return 0, err
	}
	handle, added := ns.Add(class, hash)
	if !added {
		if err := rt.Unpin(ref); err != nil {
			return 0, err
		}
	}
	return handle, nil
}

// unlockHeap settles the heap critical section's charges and leaves it.
// Every heapMu.Lock pairs with it.
func (rt *Runtime) unlockHeap() {
	rt.tab.Settle()
	rt.heapMu.Unlock()
}

// ---- frames ----------------------------------------------------------

// frame is the activation record of one method execution: the heap
// handles its operations made (the stand-in for stack/register roots in
// a real VM), the trace span and the lane (see cross) of the chain it
// belongs to, and — it implements classmodel.Env (env.go) — the
// environment its body runs against. A relay executing a sampled
// cross-boundary call stores the call's span here, so proxy invocations
// the body makes become child spans of the same trace. Nil span when the
// chain is unsampled or telemetry is off.
//
// Frames are pooled, per runtime. Lifetime rule: a frame is released only
// after the body and every closure the body's calls handed to a worker
// have returned. The engine keeps it by construction — a ring
// submission and a full transition both block their caller until the
// far side has run — and a body keeps it by not using
// New, Call, CallStatic, GetField or SetField of its Env past its own
// return: by then they act on whichever activation holds the record
// next. Trusted, FS and MemTouch depend on the runtime alone, which a
// record never changes, so an Env kept for those (a reader that charges
// its memory traffic through env.MemTouch) stays good.
type frame struct {
	rt   *Runtime
	span *telemetry.Span
	lane *Lane
	// up is the activation that called this one: the caller of a method
	// body (dispatch), the frame on the opposite runtime whose crossing
	// a relay runs inside (relayCore), nil for an Exec frame or a relay
	// detached from its caller. A chain crosses the boundary at relays;
	// held looks only at the frames of its own runtime.
	up *frame
	// owned lists the handles the activation's operations made, one per
	// object (adopt), each one owner of its heap handle until release.
	// index locates the refs past the first frameScanOwned by hash; it is
	// nil until a frame owns that many.
	owned []ownedRef
	index map[int64]int32
	// inline backs owned until an activation owns more than it holds.
	inline [frameInlineOwned]ownedRef
	// argv holds the argument vectors of the calls the body makes (see
	// classmodel.NewEnv).
	argv [classmodel.EnvArgs]wire.Value
}

// ownedRef is one handle a frame owns and the identity hash of its
// object. A handle handed on to the caller with a result (adoptResult)
// reads 0.
type ownedRef struct {
	hash   int64
	handle heap.Handle
}

// frameInlineOwned covers a leaf activation (self, a few arguments, a
// field or element it reads) without allocating; find scans the first
// frameScanOwned refs, about what one map lookup costs, and indexes the
// rest; frameKeepOwned bounds what a pooled frame keeps of a larger
// list, so one scan of a long bucket does not pin its storage in the
// pool.
const (
	frameInlineOwned = 8
	frameScanOwned   = 32
	frameKeepOwned   = 256
)

// own records a handle the activation's operation made, or one it took
// over.
func (fr *frame) own(hash int64, h heap.Handle) {
	if n := len(fr.owned); n >= frameScanOwned {
		if fr.index == nil {
			fr.index = make(map[int64]int32)
		}
		fr.index[hash] = int32(n)
	}
	fr.owned = append(fr.owned, ownedRef{hash: hash, handle: h})
}

// find returns the index in owned of the frame's handle of hash, or -1:
// a scan of the first frameScanOwned, then the index, so the search
// stays O(1) in a frame that owns thousands of refs (a recovery pass, a
// snapshot walk).
func (fr *frame) find(hash int64) int {
	n := len(fr.owned)
	for i, o := range fr.owned[:min(n, frameScanOwned)] {
		if o.hash == hash && o.handle != 0 {
			return i
		}
	}
	if n > frameScanOwned {
		if i, ok := fr.index[hash]; ok && fr.owned[i].handle != 0 {
			return int(i)
		}
	}
	return -1
}

// held returns the handle by which fr or an activation of its runtime up
// its call chain holds hash. The activations up the chain outlive fr, so
// fr uses their handles without owning one.
func (fr *frame) held(hash int64) (heap.Handle, bool) {
	for f := fr; f != nil; f = f.up {
		if f.rt != fr.rt {
			continue
		}
		if i := f.find(hash); i >= 0 {
			return f.owned[i].handle, true
		}
	}
	return 0, false
}

// env returns the Env a body runs against in this frame.
func (fr *frame) env() classmodel.Env { return classmodel.NewEnv(fr, &fr.argv) }

// newFrame takes an activation record for a body about to run in rt,
// carrying the trace span of the chain it continues.
func (rt *Runtime) newFrame(span *telemetry.Span) *frame {
	fr := rt.frames.Get().(*frame)
	fr.span = span
	if fr.owned == nil {
		fr.owned = fr.inline[:0]
	}
	return fr
}

// releaseFrame drops the frame's handles, in one heap critical section,
// and returns the record to the pool: an object no other frame or pin
// holds becomes collectable.
func (rt *Runtime) releaseFrame(fr *frame) {
	if len(fr.owned) > 0 {
		rt.heapMu.Lock()
		for _, o := range fr.owned {
			if o.handle != 0 {
				// Best effort: a released handle only pins memory.
				_ = rt.iso.Release(o.handle)
			}
		}
		rt.unlockHeap()
	}
	fr.span, fr.lane, fr.up = nil, nil, nil
	if fr.argv[0].Kind() != wire.KindInvalid {
		// A call with arguments wrote argv from its first value on.
		clear(fr.argv[:])
	}
	switch n := len(fr.owned); {
	case cap(fr.owned) > frameKeepOwned:
		fr.owned, fr.index = nil, nil
	case n > frameScanOwned:
		clear(fr.index)
		fallthrough
	default:
		fr.owned = fr.owned[:0]
	}
	rt.frames.Put(fr)
}

// release drops one owner of handle h.
func (rt *Runtime) release(h heap.Handle) error {
	rt.heapMu.Lock()
	defer rt.unlockHeap()
	return rt.iso.Release(h)
}

// retain finds the object hash where fr may use it without making a
// handle: held by fr or an activation up its chain, or pinned — a
// pinned handle gains an owner in fr, so a concurrent Unpin cannot drop
// it from under the activation.
func (rt *Runtime) retain(fr *frame, hash int64) (heap.Handle, bool) {
	if h, ok := fr.held(hash); ok {
		return h, true
	}
	if rt.pinned.Load() == 0 {
		return 0, false
	}
	rt.pinMu.Lock()
	defer rt.pinMu.Unlock()
	p, ok := rt.pins[hash]
	if !ok {
		return 0, false
	}
	rt.heapMu.Lock()
	err := rt.iso.Heap().Retain(p.handle)
	rt.unlockHeap()
	if err != nil {
		return 0, false
	}
	fr.own(hash, p.handle)
	return p.handle, true
}

// adopt gives fr the fresh handle an operation made to the object hash.
// When fr's chain or the pins already hold the object (retain), the
// fresh handle is dropped at once and theirs is used: an object has one
// handle per chain.
func (rt *Runtime) adopt(fr *frame, hash int64, fresh heap.Handle) (heap.Handle, error) {
	if h, ok := rt.retain(fr, hash); ok {
		return h, rt.release(fresh)
	}
	fr.own(hash, fresh)
	return fresh, nil
}

// resolve finds the handle of hash for fr when the ref at hand carries
// none that passes the identity check (lockRef) — a ref that crossed the
// boundary, one host code kept, one inside a list: retain's, or a fresh
// one to a mirror in the registry or a canonical proxy in the heap's
// weak table, which fr owns.
func (rt *Runtime) resolve(fr *frame, hash int64) (heap.Handle, error) {
	if h, ok := rt.retain(fr, hash); ok {
		return h, nil
	}
	rt.heapMu.Lock()
	h, err := rt.fresh(hash)
	rt.unlockHeap()
	if err != nil {
		return 0, err
	}
	fr.own(hash, h)
	return h, nil
}

// fresh makes a new handle to the object hash the registry (a mirror) or
// the heap's weak table (a canonical proxy) names. The caller holds heapMu;
// reg.Resolve is a read — it never triggers the registry's releaser hook
// — so calling it under heapMu preserves the lock order.
func (rt *Runtime) fresh(hash int64) (heap.Handle, error) {
	if regHandle, ok := rt.reg.Resolve(hash); ok {
		addr, err := rt.iso.Heap().Deref(regHandle)
		if err != nil {
			return 0, err
		}
		return rt.iso.HandleAt(addr, hash)
	}
	if addr, ok := rt.iso.Heap().LiveWeak(hash); ok {
		return rt.iso.HandleAt(addr, hash)
	}
	return 0, fmt.Errorf("%w: %d", ErrNoSuchObject, hash)
}

// lockRef takes heapMu for an operation of fr on ref v and returns the
// handle of v's object: the one v carries when it passes the identity
// check, which reads only the heap's handle table and so charges
// nothing, or else the one resolve finds. On error heapMu is not held.
func (rt *Runtime) lockRef(fr *frame, v wire.Value) (heap.Handle, error) {
	_, hash, _ := v.AsRef()
	rt.heapMu.Lock()
	if h, ok := rt.iso.Heap().Identify(v.Handle(), hash); ok {
		return h, nil
	}
	rt.unlockHeap()
	h, err := rt.resolve(fr, hash)
	if err != nil {
		return 0, err
	}
	rt.heapMu.Lock()
	return h, nil
}

// lockRefs is lockRef for an operation on two refs, recv then arg. When
// arg must be resolved, recv is checked again afterwards: a handle that
// passed the check unheld is good only inside the section that checked
// it.
func (rt *Runtime) lockRefs(fr *frame, recv, arg wire.Value) (heap.Handle, heap.Handle, error) {
	h, err := rt.lockRef(fr, recv)
	if err != nil {
		return 0, 0, err
	}
	_, hash, _ := arg.AsRef()
	if ah, ok := rt.iso.Heap().Identify(arg.Handle(), hash); ok {
		return h, ah, nil
	}
	rt.unlockHeap()
	ah, err := rt.resolve(fr, hash)
	if err != nil {
		return 0, 0, err
	}
	_, rh, _ := recv.AsRef()
	rt.heapMu.Lock()
	if h, ok := rt.iso.Heap().Identify(uint64(h), rh); ok {
		return h, ah, nil
	}
	rt.unlockHeap()
	return 0, 0, fmt.Errorf("%w: %d", ErrNoSuchObject, rh)
}

// classDecl returns the image declaration of a ref's class.
func (rt *Runtime) classDecl(class string) (*classmodel.Class, error) {
	hot := &rt.hotDecls[linkSlot(class, "")&(declSlots-1)]
	if c := hot.Load(); c != nil && c.Name == class {
		return c, nil
	}
	c, ok := rt.img.Program().Class(class)
	if !ok {
		return nil, fmt.Errorf("%w: class %s", image.ErrClosedWorld, class)
	}
	hot.Store(c)
	return c, nil
}

// link is everything the engine resolves by name to run or relay one
// (class, method) pair, none of which changes after the images and the
// enclave interface are built: the class declaration, the method as this
// runtime's image compiled it, and the relay name and edge routine that
// carry the call to the opposite runtime when the class is a proxy here.
// Each part keeps the error (or absence) its lookup reported, so a cached
// failure reads exactly like a fresh one.
type link struct {
	ref     classmodel.MethodRef
	decl    *classmodel.Class
	declErr error
	method  *classmodel.Method
	lookErr error
	// relayName is transform.RelayName(ref.Method); routine bridges
	// (ref.Class, relayName) into the opposite runtime, when the
	// interface has such a routine.
	relayName  string
	routine    edl.Routine
	hasRoutine bool
}

// linkTable returns the current (immutable) link map; nil before the
// first link is kept.
func (rt *Runtime) linkTable() map[classmodel.MethodRef]*link {
	if m := rt.links.Load(); m != nil {
		return *m
	}
	return nil
}

// linkSlots and declSlots size Runtime.hot and Runtime.hotDecls: powers
// of two, about four times the (class, method) pairs and the classes of
// the largest image in the tree.
const (
	linkSlots = 128
	declSlots = 32
)

// linkSlot places (class, method) in Runtime.hot. It reads no more than
// the names' lengths and end bytes: two links that share a slot only
// take turns in it.
func linkSlot(class, method string) int {
	h := uint(len(class))<<7 ^ uint(len(method))
	if n := len(class); n > 0 {
		h = h*31 + uint(class[n-1])
	}
	if n := len(method); n > 0 {
		h = h*31 + uint(method[0])
		h = h*31 + uint(method[n-1])
	}
	return int((h ^ h>>7) & (linkSlots - 1))
}

// link returns the cached resolution of (class, method), resolving it on
// first use. The hit path takes no lock and hashes no string.
func (rt *Runtime) link(class, method string) *link {
	hot := &rt.hot[linkSlot(class, method)]
	if lk := hot.Load(); lk != nil && lk.ref.Method == method && lk.ref.Class == class {
		return lk
	}
	lk := rt.resolveLink(class, method)
	hot.Store(lk)
	return lk
}

// resolveLink is link behind Runtime.hot: the link map, then the lookups.
func (rt *Runtime) resolveLink(class, method string) *link {
	ref := classmodel.MethodRef{Class: class, Method: method}
	if lk, ok := rt.linkTable()[ref]; ok {
		return lk
	}
	lk := &link{ref: ref, relayName: transform.RelayName(method)}
	lk.decl, lk.declErr = rt.classDecl(class)
	_, lk.method, lk.lookErr = rt.img.Lookup(ref)
	if iface := rt.w.iface; iface != nil {
		dir := edl.Ecall
		if rt.trusted {
			dir = edl.Ocall
		}
		lk.routine, lk.hasRoutine = iface.Lookup(dir, class, lk.relayName)
	}
	if lk.lookErr != nil && !lk.hasRoutine {
		// Nothing by that name on either side. Names reach here from
		// gateway clients; only those the images know are kept, which
		// bounds the table by the program.
		return lk
	}
	rt.linkMu.Lock()
	defer rt.linkMu.Unlock()
	old := rt.linkTable()
	if winner, ok := old[ref]; ok {
		return winner
	}
	next := make(map[classmodel.MethodRef]*link, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[ref] = lk
	rt.links.Store(&next)
	return lk
}

// ---- marshalling across the boundary ---------------------------------

// marshalVals prepares an argument/result vector for the boundary
// crossing: neutral values are serialized; references to local concrete
// annotated objects are exported into the registry so the opposite
// runtime may hold proxies to them; references to local proxies cross as
// their bare hash (the opposite runtime resolves its mirror). It runs the
// value pass — registry exports, the by-value rules and the
// serialization charge — without committing to an output buffer, so the
// ring path can encode the vector straight into a slot while the frame
// path uses a pooled buffer (encodeVals). The values cross as they are:
// a ref travels as its hash and class whichever side owns the object, so
// the pass reads vals and builds nothing.
func (rt *Runtime) marshalVals(fr *frame, vals []wire.Value) error {
	for _, v := range vals {
		if err := rt.marshalValue(fr, v, 0); err != nil {
			return err
		}
	}
	rt.chargeSerialization(vals, simcfg.SerializeCyclesPerValue)
	return nil
}

// encodeVals encodes a prepared value vector into a pooled buffer.
// Size-precompute plus a pooled buffer: the hot path neither grows nor
// allocates. Callers recycle the buffer with w.bufs.Put once the
// receiver has decoded it (decoding copies).
func (rt *Runtime) encodeVals(vals []wire.Value) []byte {
	buf := wire.AppendValues(rt.w.bufs.Get(wire.SizeValues(vals)), vals)
	rt.marshalled.Add(uint64(len(buf)))
	return buf
}

// chargeSerialization charges the Java-serialization cost of a value
// vector: perCycles per leaf element, multiplied when performed inside
// the enclave (Fig. 4b's in-vs-out asymmetry).
func (rt *Runtime) chargeSerialization(vals []wire.Value, perCycles int64) {
	leaves := 0
	for _, v := range vals {
		leaves += leafCount(v)
	}
	cost := float64(leaves) * float64(perCycles)
	if rt.trusted {
		cost *= simcfg.EnclaveSerializeFactor
	}
	rt.w.clock.Charge(int64(cost))
}

// leafCount counts the scalar elements of a value tree.
func leafCount(v wire.Value) int {
	switch v.Kind() {
	case wire.KindList:
		n := 0
		for i, l := 0, v.Len(); i < l; i++ {
			n += leafCount(v.Index(i))
		}
		return n
	default:
		return 1
	}
}

// marshalValue prepares one value of an outgoing vector: every ref in it
// is checked and, where it names a local object, exported (marshalRef).
func (rt *Runtime) marshalValue(fr *frame, v wire.Value, depth int) error {
	if depth > maxNeutralDepth {
		return errors.New("world: neutral value too deep (cycle?)")
	}
	switch v.Kind() {
	case wire.KindList:
		for i, l := 0, v.Len(); i < l; i++ {
			if err := rt.marshalValue(fr, v.Index(i), depth+1); err != nil {
				return err
			}
		}
	case wire.KindRef:
		return rt.marshalRef(fr, v)
	}
	return nil
}

// marshalRef handles an object reference crossing the boundary.
func (rt *Runtime) marshalRef(fr *frame, v wire.Value) error {
	class, hash, _ := v.AsRef()
	if classmodel.IsBuiltin(class) {
		return fmt.Errorf("%w: %s#%d", ErrNeutralByValue, class, hash)
	}
	decl, err := rt.classDecl(class)
	if err != nil {
		return err
	}
	if decl.Proxy {
		// A proxy crossing back to its object's home runtime: the bare
		// hash suffices; the mirror is in the opposite registry.
		return nil
	}
	switch decl.Ann {
	case classmodel.Neutral:
		return fmt.Errorf("%w: neutral class %s", ErrNeutralByValue, class)
	default:
		// A local concrete annotated object leaves the runtime: export
		// a strong reference into OUR registry so the opposite runtime's
		// new proxy keeps the mirror alive (§5.2). The address is derefed
		// and re-handled inside one heap critical section, so no
		// collection can move the object in between.
		h, err := rt.lockRef(fr, v)
		if err != nil {
			return err
		}
		addr, err := rt.iso.Heap().Deref(h)
		var regHandle heap.Handle
		if err == nil {
			regHandle, err = rt.iso.HandleAt(addr, hash)
		}
		rt.unlockHeap()
		if err != nil {
			return err
		}
		// Export outside heapMu: a duplicate export triggers the
		// registry's releaser, which takes heapMu itself.
		return rt.reg.Export(hash, regHandle)
	}
}

// unmarshalIn decodes an incoming argument/result vector, materialising
// local representatives for every reference: mirrors are resolved through
// the registry, and refs to remote objects become (or reuse) local proxy
// instances, weak-tracked for GC synchronisation.
func (rt *Runtime) unmarshalIn(fr *frame, buf []byte) ([]wire.Value, error) {
	vals, err := wire.UnmarshalList(buf)
	if err != nil {
		return nil, fmt.Errorf("world: corrupt boundary buffer: %w", err)
	}
	rt.chargeSerialization(vals, simcfg.DeserializeCyclesPerValue)
	rt.marshalled.Add(uint64(len(buf)))
	for i, v := range vals {
		if vals[i], err = rt.localiseValue(fr, v, 0); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// localiseValue gives every ref inside an incoming value its local
// representative (localiseRef). A ref returns carrying its handle; a
// list returns as decoded.
func (rt *Runtime) localiseValue(fr *frame, v wire.Value, depth int) (wire.Value, error) {
	if depth > maxNeutralDepth {
		return v, errors.New("world: neutral value too deep (cycle?)")
	}
	switch v.Kind() {
	case wire.KindList:
		for i, l := 0, v.Len(); i < l; i++ {
			if _, err := rt.localiseValue(fr, v.Index(i), depth+1); err != nil {
				return v, err
			}
		}
	case wire.KindRef:
		h, err := rt.localiseRef(fr, v)
		return v.WithHandle(uint64(h)), err
	}
	return v, nil
}

// localiseRef ensures a live local object exists for an incoming ref
// and returns its handle. It never touches the opposite runtime while
// holding the local heap lock (lock-order discipline: at most one
// runtime's heap lock at a time — the duplicate-export release below
// takes the opposite one via the registry's releaser hook).
func (rt *Runtime) localiseRef(fr *frame, v wire.Value) (heap.Handle, error) {
	class, hash, _ := v.AsRef()
	decl, err := rt.classDecl(class)
	if err != nil {
		return 0, err
	}

	if !decl.Proxy {
		// The object lives here: it must be a registered mirror (or an
		// already-known local object).
		h, err := rt.resolve(fr, hash)
		if err != nil {
			return 0, fmt.Errorf("%w (class %s, hash %d)", ErrStaleMirror, class, hash)
		}
		return h, nil
	}

	// The ref names a remote object: reuse the canonical live proxy if
	// one exists, otherwise materialise a new proxy instance. Two
	// goroutines importing the same hash at once may both materialise;
	// the heap's weak table finds whichever is live, each becomes garbage
	// once no frame holds it, and a sweep reclaims its sender export.
	h, ok := rt.retain(fr, hash)
	if !ok {
		rt.heapMu.Lock()
		addr, live := rt.iso.Heap().LiveWeak(hash)
		if live {
			h, err = rt.iso.HandleAt(addr, hash)
		}
		rt.unlockHeap()
		if err != nil {
			return 0, err
		}
		if !live {
			return rt.newProxy(fr, class, hash)
		}
		fr.own(hash, h)
	}
	// A live local representative already holds a registry export; drop
	// the duplicate export made by the sender.
	if opp := rt.peer; opp != nil {
		if _, rerr := opp.reg.Release(hash); rerr != nil {
			return 0, rerr
		}
	}
	return h, nil
}

// newProxy materialises a proxy instance for a remote object, which fr
// owns, and weak-tracks it.
func (rt *Runtime) newProxy(fr *frame, class string, hash int64) (heap.Handle, error) {
	rt.heapMu.Lock()
	h, err := rt.iso.NewObject(class, hash)
	if err == nil {
		err = rt.iso.NewWeak(h, hash)
	}
	rt.unlockHeap()
	if err != nil {
		return 0, err
	}
	rt.proxiesNew.Add(1)
	fr.own(hash, h)
	return h, nil
}

// ---- dispatch ---------------------------------------------------------

// dispatch runs a method body locally. self is a ref (or null for static
// methods); refs in args must already be live locally, and the callee
// records none of them: the activation making the call, caller (nil for
// none), or one up its chain holds them for the callee's whole
// activation. adoptInto (nil, or caller) hands the callee its trace span
// and lane, and the refs inside the result to keep before the callee
// frame is released (adoptResult).
func (rt *Runtime) dispatch(lk *link, self wire.Value, args []wire.Value, caller, adoptInto *frame) (wire.Value, error) {
	if lk.lookErr != nil {
		return wire.Value{}, lk.lookErr
	}
	m := lk.method
	if m.Body == nil {
		return wire.Value{}, fmt.Errorf("world: method %s has no body (abstract or runtime-native)", lk.ref)
	}
	if len(m.Params) != len(args) {
		return wire.Value{}, fmt.Errorf("%w: %s wants %d args, got %d", ErrBadArity, lk.ref, len(m.Params), len(args))
	}
	rt.w.clock.Charge(simcfg.LocalCallCycles)
	fr := rt.newFrame(nil)
	fr.up = caller
	if adoptInto != nil {
		fr.span, fr.lane = adoptInto.span, adoptInto.lane
	}
	defer rt.releaseFrame(fr)
	result, err := m.Body(fr.env(), self, args)
	if err != nil {
		return wire.Value{}, fmt.Errorf("%s: %w", lk.ref, err)
	}
	if adoptInto != nil {
		if err := rt.adoptResult(adoptInto, fr, result); err != nil {
			return wire.Value{}, err
		}
	}
	return result, nil
}

// adoptResult keeps the refs inside a callee's result live for the
// caller fr past the release of the callee's frame from: a handle from
// made passes to fr as it is; a ref from did not make is held up the
// chain already, or fr resolves it.
func (rt *Runtime) adoptResult(fr, from *frame, v wire.Value) error {
	switch v.Kind() {
	case wire.KindRef:
		_, hash, _ := v.AsRef()
		if i := from.find(hash); i >= 0 {
			if _, ok := fr.held(hash); !ok {
				fr.own(hash, from.owned[i].handle)
				from.owned[i].handle = 0
			}
			return nil
		}
		_, err := rt.resolve(fr, hash)
		return err
	case wire.KindList:
		for i, l := 0, v.Len(); i < l; i++ {
			if err := rt.adoptResult(fr, from, v.Index(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// remoteCall performs a proxy invocation: marshal, transition through the
// enclave boundary, dispatch the relay in the opposite runtime, and
// localise the result (§5.2).
func (rt *Runtime) remoteCall(fr *frame, lk *link, hash int64, args []wire.Value) (wire.Value, error) {
	w := rt.w
	to := rt.peer
	if to == nil {
		return wire.Value{}, fmt.Errorf("%w: no opposite runtime for remote call", ErrWrongRuntime)
	}
	class, relayName, routine := lk.ref.Class, lk.relayName, lk.routine
	if !lk.hasRoutine {
		return wire.Value{}, fmt.Errorf("%w: no edge routine for %s.%s", image.ErrClosedWorld, class, relayName)
	}
	in := to.trusted // the call enters the enclave
	want := routine.ReturnsValue

	if err := rt.marshalVals(fr, args); err != nil {
		return wire.Value{}, err
	}

	if rt.queue != nil {
		// Result-independent calls (void-returning relays) are queued
		// and coalesced into one batched transition; the caller observes
		// null immediately and any call error at the flush. A flush this
		// frame causes crosses on the frame's lane, if it has one.
		if w.cfg.Batching && !want {
			rt.remoteOut.Add(1)
			argsLen := wire.SizeValues(args)
			rt.marshalled.Add(uint64(argsLen))
			req := wire.AppendValues(w.queuedCall(class, relayName, hash, argsLen), args)
			return wire.Null(), rt.queue.Enqueue(boundary.Entry{ID: routine.ID, Req: req}, fr.lane)
		}
		// A result-dependent call must observe the effects of every
		// queued call: flush first.
		if err := rt.queue.Flush(fr.lane); err != nil {
			return wire.Value{}, fmt.Errorf("world: flushing batched calls before %s.%s: %w", class, relayName, err)
		}
	}

	// Start the call's trace span: a child when the current activation
	// is already part of a sampled chain (nested ocall under an ecall
	// relay), otherwise a freshly sampled root. Nil in the common case.
	var sp *telemetry.Span
	if tracer := w.tel.Tracer(); tracer != nil {
		name := "relay " + class + "." + relayName
		if fr.span != nil {
			sp = tracer.StartChild(fr.span, name)
		} else {
			sp = tracer.StartRoot(name)
		}
	}

	// Ring route first: encode the call straight into a shared slot
	// (zero intermediate copies, in-place crypto) with the opened
	// response, if the call is not void, decoded in place. Oversized,
	// busy or ring-less calls fall through to the frame path below; never
	// waiting for a ring keeps nested relay chains deadlock-free. A frame
	// on a lane hands the call across on the lane instead (cross).
	if rt.encl != nil && rt.rings != nil && fr.lane == nil {
		argsLen := wire.SizeValues(args)
		need := 1 + wire.CallSize(class, relayName, hash, argsLen)
		var (
			results []wire.Value
			respLen int
			flags   byte = wire.CallWantResult
		)
		fill := func(slot []byte) ([]byte, error) {
			slot = wire.AppendCallHeader(append(slot, flags), class, relayName, hash, argsLen)
			return wire.AppendValues(slot, args), nil
		}
		done := func(resp []byte) error {
			respLen = len(resp)
			var derr error
			results, derr = rt.unmarshalIn(fr, resp)
			return derr
		}
		if !want {
			flags, done = 0, nil
		}
		sp.SetDir(in)
		sp.SetRoutine(routine.ID)
		var start time.Time
		if w.hDispatchNS != nil {
			start = time.Now()
		}
		if rerr := rt.rings.TryCall(routine.ID, need, sp, fill, done); rt.rode(rerr, 1) {
			sp.SetRoute("ring")
			if w.hDispatchNS != nil {
				w.hDispatchNS.ObserveDuration(time.Since(start))
			}
			rt.marshalled.Add(uint64(need))
			sp.AddMarshalBytes(need + respLen)
			sp.Finish(rerr)
			w.hMarshal.Observe(int64(need + respLen))
			if rerr != nil {
				return wire.Value{}, rerr
			}
			rt.remoteOut.Add(1)
			if !want {
				return wire.Null(), nil
			}
			if len(results) != 1 {
				return wire.Value{}, fmt.Errorf("world: relay %s.%s returned %d values", class, relayName, len(results))
			}
			return results[0], nil
		}
	}

	argBuf := rt.encodeVals(args)
	sp.AddMarshalBytes(len(argBuf))

	var (
		resultBuf []byte
		err       error
	)
	invoke := func() error {
		var rerr error
		resultBuf, rerr = to.dispatchRelay(class, relayName, hash, argBuf, want, sp, fr)
		return rerr
	}
	if rt.encl != nil {
		// Copying the argument and result buffers across the boundary
		// streams them through the MEE; a void call has no result buffer.
		w.clock.ChargeBytes(len(argBuf), simcfg.MEEBytesPerCycle)
		w.meeBytes.Add(uint64(len(argBuf)))
		err = rt.cross(routine.ID, fr.lane, sp, invoke)
		if err == nil {
			w.clock.ChargeBytes(len(resultBuf), simcfg.MEEBytesPerCycle)
			w.meeBytes.Add(uint64(len(resultBuf)))
		}
	} else {
		err = invoke()
	}
	sp.AddMarshalBytes(len(resultBuf))
	sp.Finish(err)
	w.hMarshal.Observe(int64(len(argBuf) + len(resultBuf)))
	w.bufs.Put(argBuf)
	if err != nil {
		return wire.Value{}, err
	}
	rt.remoteOut.Add(1)
	if !want {
		return wire.Null(), nil
	}

	results, err := rt.unmarshalIn(fr, resultBuf)
	w.bufs.Put(resultBuf)
	if err != nil {
		return wire.Value{}, err
	}
	if len(results) != 1 {
		return wire.Value{}, fmt.Errorf("world: relay %s.%s returned %d values", class, relayName, len(results))
	}
	return results[0], nil
}

// ---- crossing ---------------------------------------------------------
//
// A call leaves a runtime one of two ways, and these two functions are
// the only places that tell them apart: the crossing (cross) and the
// ring submission, whose outcome rode settles. remoteCall, the batch
// flush and the GC sweep are their callers.

// cross runs fn on the opposite runtime and decides what crossing costs:
// from a frame on a lane, a hand-off to the lane's resident thread
// (sgx.Enclave.Switchless) or, outward, to its polling worker
// (SwitchlessOcall), the "resident" route; else a full ecall or ocall at
// simcfg.Config.TransitionCycles. sp (nil when unsampled) receives the
// direction, routine id, route and the cycles fn charged on the far
// side; the caller owns Finish.
func (rt *Runtime) cross(id int, lane *Lane, sp *telemetry.Span, fn func() error) error {
	w := rt.w
	in := !rt.trusted
	sp.SetDir(in)
	sp.SetRoutine(id)
	sp.SetRoute("full")
	var start time.Time
	if w.hDispatchNS != nil {
		start = time.Now()
	}
	fn = w.measureBody(sp, fn)
	var err error
	switch {
	case lane != nil:
		sp.SetRoute("resident")
		rt.laneCalls.Add(1)
		if in {
			err = rt.encl.Switchless(fn)
		} else {
			err = rt.encl.SwitchlessOcall(fn)
		}
	case in:
		rt.fullCalls.Add(1)
		err = rt.encl.Ecall(id, fn)
	default:
		rt.fullCalls.Add(1)
		err = rt.encl.Ocall(id, fn)
	}
	if w.hDispatchNS != nil {
		w.hDispatchNS.ObserveDuration(time.Since(start))
	}
	return err
}

// measureBody wraps fn, the far side of a crossing, so that the cycles
// it charges reach sp and the body-cycles histogram; fn itself when
// neither is on.
func (w *World) measureBody(sp *telemetry.Span, fn func() error) func() error {
	if sp == nil && w.hBodyCycles == nil {
		return fn
	}
	return func() error {
		before := w.clock.Total()
		err := fn()
		spent := w.clock.Total() - before
		sp.AddBodyCycles(spent)
		w.hBodyCycles.Observe(spent)
		return err
	}
}

// rode reports whether a ring submission rode the ring, from the error
// TryCall or TryBatch returned, and counts its route and the n calls
// that ran on it. ErrTooLarge (the oversize route) and ErrBusy or
// ErrStopped (the fallback route) mean nothing ran: the caller crosses
// in full instead. Any other outcome rode, and err is the far side's.
func (rt *Runtime) rode(err error, n int) bool {
	switch {
	case errors.Is(err, ring.ErrTooLarge):
		rt.ringOversize.Add(1)
		return false
	case errors.Is(err, ring.ErrBusy), errors.Is(err, ring.ErrStopped):
		rt.ringFallbacks.Add(1)
		return false
	}
	rt.ringCalls.Add(uint64(n))
	return true
}

// execCall runs one call record that crossed the boundary — from a ring
// slot or a batch frame — on the receiving runtime rt: a registry
// release from the GC sweep, or a relay call. want asks for the relay's
// result, marshalled into resp (see dispatchRelaySlot); a void call,
// batched or not, answers nothing, and its error names the call.
// sp parents any calls the relay makes, and the relay runs on lane (nil
// off the gateway; see relayCore).
func (rt *Runtime) execCall(c wire.Call, want bool, resp []byte, sp *telemetry.Span, lane *Lane) ([]byte, bool, error) {
	switch {
	case c.Method == gcReleaseMethod:
		_, err := rt.reg.Release(c.Hash)
		return nil, false, err
	case want:
		return rt.dispatchRelaySlot(c.Class, c.Method, c.Hash, c.Args, resp, sp)
	}
	if err := rt.relayCore(c.Class, c.Method, c.Hash, c.Args, sp, lane, nil, nil); err != nil {
		return nil, false, fmt.Errorf("world: void call %s.%s: %w", c.Class, c.Method, err)
	}
	return nil, false, nil
}

// dispatchRelay executes a relay method natively (the generated
// @CEntryPoint wrappers of Listing 4): constructor relays instantiate the
// mirror and register it; instance relays resolve the mirror in the
// registry and invoke the concrete method. It returns the marshalled
// result if want; a void relay answers nothing. parent is the caller's
// trace span (nil when unsampled), threaded into the relay's frame so
// calls the body makes back across the boundary become children of the
// same trace. caller is the frame that made the call, on the opposite
// runtime, blocked in the crossing until the relay returns; the relay
// runs on its lane and continues its chain (see relayCore).
func (rt *Runtime) dispatchRelay(class, relayName string, hash int64, argBuf []byte, want bool, parent *telemetry.Span, caller *frame) ([]byte, error) {
	if !want {
		return nil, rt.relayCore(class, relayName, hash, argBuf, parent, caller.lane, caller, nil)
	}
	var out []byte
	err := rt.relayCore(class, relayName, hash, argBuf, parent, caller.lane, caller, func(fr *frame, result wire.Value) error {
		vals := [1]wire.Value{result}
		if err := rt.marshalVals(fr, vals[:]); err != nil {
			return err
		}
		out = rt.encodeVals(vals[:])
		return nil
	})
	return out, err
}

// dispatchRelaySlot is dispatchRelay for the ring data plane: the relay
// result is marshalled directly into the response slot (the returned
// buffer aliases slot), or — when it does not fit — into a fresh
// overflow buffer reported with overflow=true, which the ring producer
// side charges at MEE rate as a plain copy.
func (rt *Runtime) dispatchRelaySlot(class, relayName string, hash int64, argBuf, slot []byte, parent *telemetry.Span) (out []byte, overflow bool, err error) {
	err = rt.relayCore(class, relayName, hash, argBuf, parent, nil, nil, func(fr *frame, result wire.Value) error {
		one := [1]wire.Value{result}
		vals := one[:]
		if merr := rt.marshalVals(fr, vals); merr != nil {
			return merr
		}
		enc, serr := wire.AppendValuesSlot(slot, vals)
		if serr == nil {
			rt.marshalled.Add(uint64(len(enc)))
			out = enc
			return nil
		}
		overflow = true
		out = wire.AppendValues(make([]byte, 0, wire.SizeValues(vals)), vals)
		rt.marshalled.Add(uint64(len(out)))
		return nil
	})
	return out, overflow, err
}

// relayCore is the shared body of the relay entry points: look up the
// relay, decode the arguments, run the constructor or instance
// dispatch, and hand the raw result to finish (nil for a void call on
// any route) before the relay frame is released — result marshalling
// must happen while the frame still retains the exports. The relay
// frame carries the caller's lane: a call back into the enclave made
// under an ocall from a lane is handed to the same resident thread, as
// a nested ecall in SGX reuses the calling thread's TCS, so no chain a
// lane started waits for a free slot. On the full and lane routes, where
// the relay runs inside its caller's crossing, up is the calling frame:
// the relay frame continues the crossing chain, and finds an object a
// frame of its own runtime further up holds (held) without resolving it
// again. A ring call or a batched one runs detached from its caller, up
// nil.
func (rt *Runtime) relayCore(class, relayName string, hash int64, argBuf []byte, parent *telemetry.Span, lane *Lane, up *frame, finish func(fr *frame, result wire.Value) error) error {
	relay := rt.link(class, relayName)
	if relay.lookErr != nil {
		return relay.lookErr
	}
	if !relay.method.Relay {
		return fmt.Errorf("world: %s.%s is not a relay method", class, relayName)
	}
	target := rt.link(class, relay.method.RelayFor)

	fr := rt.newFrame(parent)
	fr.lane, fr.up = lane, up
	defer rt.releaseFrame(fr)

	args, err := rt.unmarshalIn(fr, argBuf)
	if err != nil {
		return err
	}

	var result wire.Value
	switch {
	case target.ref.Method == classmodel.CtorName:
		// Mirror instantiation: allocate the concrete object under the
		// proxy's hash, run the constructor, and export a strong
		// reference into the mirror–proxy registry. Allocation and the
		// registry handle share one heap critical section (the address
		// must not cross it); the export itself runs outside heapMu
		// because a duplicate export triggers the registry's releaser.
		rt.heapMu.Lock()
		h, err := rt.iso.NewObject(class, hash)
		var regHandle heap.Handle
		if err == nil {
			var addr heap.Addr
			addr, err = rt.iso.Heap().Deref(h)
			if err == nil {
				regHandle, err = rt.iso.HandleAt(addr, hash)
			}
		}
		rt.unlockHeap()
		if err != nil {
			return err
		}
		fr.own(hash, h)
		if err := rt.reg.Export(hash, regHandle); err != nil {
			return err
		}
		self := wire.Ref(class, hash).WithHandle(uint64(h))
		// The relay frame is passed through so the ctor body inherits
		// the trace span (its null result adopts nothing).
		if _, err := rt.dispatch(target, self, args, fr, fr); err != nil {
			return err
		}
		result = wire.Null()

	default:
		var self wire.Value
		if target.lookErr != nil {
			return target.lookErr
		}
		if !target.method.Static {
			// Resolve the mirror: it must still be registered.
			h, rerr := rt.resolve(fr, hash)
			if rerr != nil {
				return fmt.Errorf("%w: %s#%d", ErrStaleMirror, class, hash)
			}
			self = wire.Ref(class, hash).WithHandle(uint64(h))
		}
		result, err = rt.dispatch(target, self, args, fr, fr)
		if err != nil {
			return err
		}
	}

	if finish == nil {
		return nil
	}
	return finish(fr, result)
}
