// Package world implements the Montsalvat application runtime: the glue
// that executes a partitioned program across the trusted (enclave) and
// untrusted runtimes.
//
// A World owns up to two Runtimes, each the analog of a GraalVM isolate
// loaded from one native image (§5.4: "At runtime, a GraalVM isolate is
// created in both the trusted and untrusted part of the application").
// Cross-runtime object communication follows §5.2: instantiating or
// invoking a class that is a proxy in the local image marshals the
// arguments, performs an ecall/ocall transition through the simulated
// enclave, and dispatches the corresponding relay method in the opposite
// runtime, which resolves the mirror object in its mirror–proxy registry.
//
// GC synchronisation follows §5.5: each runtime weak-tracks its proxy
// objects; a GC helper per runtime sweeps the weak list after its
// collector has cleared a weak reference and releases the mirrors of
// dead proxies in the opposite runtime's registry, making them
// collectable.
package world

import (
	"encoding/binary"
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
	"montsalvat/internal/ring"
	"montsalvat/internal/sgx"
	"montsalvat/internal/shim"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
)

// Reserved transition identifiers (application relay routines use the
// EDL-assigned positive IDs; the shim uses the 9000 range).
const (
	idGCHelper = 9100 // one trusted GC-helper scan entered from outside
	idGCSweep  = 9101 // cross-boundary mirror-release batches
	idBatch    = 9102 // batched relay-call frames (boundary.Queue flushes)
	idMain     = 9200 // unpartitioned main entry ecall
	idExec     = 9201 // ad-hoc trusted execution (benchmark harness)
)

// gcReleaseMethod marks a call record as a registry release rather than
// a relay invocation. The name cannot collide with relay methods, which
// all carry the transform.RelayPrefix.
const gcReleaseMethod = "<gc-release>"

// Mode selects the deployment configuration evaluated in the paper.
type Mode int

// Deployment modes.
const (
	// ModePartitioned runs the transformed application across an
	// untrusted runtime and a trusted runtime inside the enclave.
	ModePartitioned Mode = iota + 1
	// ModeUnpartitionedSGX runs the whole unmodified application as one
	// native image inside the enclave (§5.6).
	ModeUnpartitionedSGX
	// ModeNoSGX runs the whole application as one native image with no
	// enclave — the paper's NoSGX baseline.
	ModeNoSGX
)

func (m Mode) String() string {
	switch m {
	case ModePartitioned:
		return "partitioned"
	case ModeUnpartitionedSGX:
		return "unpartitioned-sgx"
	case ModeNoSGX:
		return "no-sgx"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Errors returned by the runtime.
var (
	ErrNoSuchObject   = errors.New("world: no live object for hash")
	ErrStaleMirror    = errors.New("world: mirror released; proxy outlived registry entry")
	ErrNeutralByValue = errors.New("world: neutral objects cross the boundary by value, not by reference")
	ErrBadArity       = errors.New("world: argument count mismatch")
	ErrNotRef         = errors.New("world: receiver is not an object reference")
	ErrWrongRuntime   = errors.New("world: operation not available in this mode")
	// ErrTCSBudget reports rings (Config.RingWorkers) that would hold
	// every TCS slot of the enclave (Options.NumTCS).
	ErrTCSBudget = errors.New("world: ecall rings leave no TCS slot free")
)

// Options configures a World.
type Options struct {
	// Cfg is the platform cost configuration.
	Cfg simcfg.Config
	// TrustedHeap and UntrustedHeap size the isolate heaps.
	TrustedHeap   heap.Config
	UntrustedHeap heap.Config
	// HostFS is the untrusted filesystem (defaults to an in-memory FS).
	HostFS shim.FS
	// NumTCS bounds concurrent enclave threads (default 64; relay chains
	// consume one slot per nesting level, and every ecall ring and each
	// gateway lane holds one for its life).
	NumTCS int
	// Signer signs the trusted image (sgx.DefaultSigner when nil). A
	// restart re-signs with the same author, so MRSIGNER-sealed state
	// stays readable.
	Signer *sgx.Signer
	// Telemetry, when non-nil, instruments every boundary crossing:
	// transition latency/cycle histograms, batching queue waits, GC sweep
	// counters and — if the bundle has tracing enabled — sampled spans
	// per proxy-call chain. Nil disables observability at a cost of one
	// branch per instrumented site.
	Telemetry *telemetry.Telemetry
}

// DefaultOptions returns options suitable for tests.
func DefaultOptions() Options {
	return Options{
		Cfg:           simcfg.Default(),
		TrustedHeap:   heap.Config{InitialSemi: 1 << 20, MaxSemi: 256 << 20},
		UntrustedHeap: heap.Config{InitialSemi: 1 << 20, MaxSemi: 256 << 20},
	}
}

// World hosts a running (possibly partitioned) application.
type World struct {
	mode    Mode
	cfg     simcfg.Config
	clock   *cycles.Clock
	enclave *sgx.Enclave // nil in ModeNoSGX
	iface   *edl.File    // nil unless partitioned

	trusted   *Runtime // nil in ModeNoSGX
	untrusted *Runtime // nil in ModeUnpartitionedSGX

	// stateMu guards the rebuildable state (enclave, runtimes, ring
	// groups) against the restart path: Kill/Restart swap them under
	// the write lock while accessors, Exec and the
	// telemetry collector read under the read lock. buildOpts/tImg/uImg retain the
	// build inputs — including the signing identity, so a re-created
	// enclave keeps its MRSIGNER and can unseal persistent state.
	stateMu   sync.RWMutex
	buildOpts Options
	tImg      *image.Image
	uImg      *image.Image
	killed    bool

	// bufs recycles marshal buffers.
	bufs *boundary.BufPool

	// erings/orings are the zero-copy ring groups (nil unless
	// cfg.Rings), each also held by the runtime that submits into it
	// (Runtime.rings); teardownLocked closes them, and leaves the open
	// lanes. meeBytes counts bytes charged at MEE copy rate on the frame
	// path — the "copies" component of the dispatch cycle breakdown.
	erings   *ring.Group
	orings   *ring.Group
	slots    [2]ring.Slots // their slot memory, made once for every generation
	lanes    []*Lane
	meeBytes atomic.Uint64

	// tel is the optional observability layer (nil when disabled). The
	// cached histograms are nil when it is off: hMarshal takes the bytes
	// each call marshals; hDispatchNS (wall time of a crossing) and
	// hBodyCycles (far-side cost of a full or ring crossing) exist only
	// in a partitioned world.
	tel         *telemetry.Telemetry
	hMarshal    *telemetry.Histogram
	hDispatchNS *telemetry.Histogram
	hBodyCycles *telemetry.Histogram

	hashCounter atomic.Int64

	// helpers turns the GC-helper step on (StartGCHelpers); it outlives
	// Kill and Restart.
	helpers atomic.Bool

	hostFS shim.FS
}

// NewPartitioned creates a world from the two images produced by the
// Montsalvat pipeline plus their enclave interface. The trusted image is
// loaded into the enclave, measured and verified before use (Fig. 1).
func NewPartitioned(opts Options, tImg, uImg *image.Image, iface *edl.File) (*World, error) {
	if tImg == nil || uImg == nil || iface == nil {
		return nil, errors.New("world: partitioned mode needs both images and the enclave interface")
	}
	if tImg.Kind() != image.TrustedImage || uImg.Kind() != image.UntrustedImage {
		return nil, errors.New("world: image kinds mismatched")
	}
	w, err := newWorld(ModePartitioned, opts)
	if err != nil {
		return nil, err
	}
	w.iface = iface
	w.buildOpts = opts
	w.tImg, w.uImg = tImg, uImg
	// Nothing else can reach w yet, which is as good as holding stateMu.
	if err := w.rebuildLocked(); err != nil {
		w.teardownLocked()
		return nil, err
	}
	return w, nil
}

// initBoundary builds the boundary plumbing of a partitioned world: the
// per-runtime batching queues and — with Rings on — the ring groups of
// both directions.
func (w *World) initBoundary() error {
	if w.cfg.Rings {
		rcfg := ring.Config{
			Workers:   w.cfg.RingWorkers,
			SlotBytes: w.cfg.RingSlotBytes,
		}
		if w.slots[0] == nil {
			w.slots = [2]ring.Slots{ring.NewSlots(rcfg), ring.NewSlots(rcfg)}
		}
		// Each ecall ring is resident INSIDE the enclave: it holds a TCS
		// slot for the group's lifetime, and one slot must stay free for
		// the ecalls that do not ride a ring, or the next would wait for
		// good. The ocall rings hold nothing.
		if n, tcs := len(w.slots[0]), w.enclave.TCSCap(); n >= tcs {
			return fmt.Errorf("%w: %d ecall rings need %d TCS slots, the enclave has %d", ErrTCSBudget, n, n+1, tcs)
		}
		erings, err := ring.NewGroup(rcfg, w.slots[0], w.clock, w.ringHandler(w.trusted), w.enclave.EnterResident)
		if err != nil {
			return fmt.Errorf("world: ecall ring group: %w", err)
		}
		orings, err := ring.NewGroup(rcfg, w.slots[1], w.clock, w.ringHandler(w.untrusted), nil)
		if err != nil {
			erings.Close()
			return fmt.Errorf("world: ocall ring group: %w", err)
		}
		w.erings, w.orings = erings, orings
	}
	w.trusted.queue = boundary.NewQueue(simcfg.BatchFlushDepth, w.batchRun(w.trusted))
	w.untrusted.queue = boundary.NewQueue(simcfg.BatchFlushDepth, w.batchRun(w.untrusted))
	if reg := w.tel.Registry(); reg != nil {
		wait := reg.Histogram("montsalvat_boundary_queue_wait_ns")
		size := reg.Histogram("montsalvat_boundary_batch_size")
		w.trusted.queue.SetTelemetry(wait, size)
		w.untrusted.queue.SetTelemetry(wait, size)
	}
	return nil
}

// NewUnpartitioned creates a world running a single whole-application
// image, either inside the enclave (§5.6) or without SGX.
func NewUnpartitioned(opts Options, img *image.Image, inEnclave bool) (*World, error) {
	if img == nil {
		return nil, errors.New("world: nil image")
	}
	mode := ModeNoSGX
	if inEnclave {
		mode = ModeUnpartitionedSGX
	}
	w, err := newWorld(mode, opts)
	if err != nil {
		return nil, err
	}
	// A failed boot leaves nothing to take down: this mode has no rings,
	// lanes or goroutines, and the half-built world is unreachable.
	if err := w.bootUnpartitioned(opts, img, inEnclave); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *World) bootUnpartitioned(opts Options, img *image.Image, inEnclave bool) (err error) {
	if inEnclave {
		if err := w.initEnclave(opts, img); err != nil {
			return err
		}
		w.trusted, err = w.newRuntime("trusted", true, img, opts.TrustedHeap)
	} else {
		w.untrusted, err = w.newRuntime("untrusted", false, img, opts.UntrustedHeap)
	}
	if err != nil {
		return err
	}
	return w.runStaticInits()
}

func newWorld(mode Mode, opts Options) (*World, error) {
	hostFS := opts.HostFS
	if hostFS == nil {
		hostFS = shim.NewMemFS()
	}
	cfg := opts.Cfg
	if cfg.CPUHz == 0 {
		cfg = simcfg.Default()
	}
	w := &World{
		mode:   mode,
		cfg:    cfg,
		clock:  cycles.New(cfg.CPUHz),
		bufs:   boundary.NewBufPool(),
		hostFS: hostFS,
		tel:    opts.Telemetry,
	}
	if reg := w.tel.Registry(); reg != nil {
		w.hMarshal = reg.Histogram("montsalvat_boundary_marshal_bytes")
		if mode == ModePartitioned {
			w.hDispatchNS = reg.Histogram("montsalvat_boundary_dispatch_ns")
			w.hBodyCycles = reg.Histogram("montsalvat_boundary_body_cycles")
		}
		reg.RegisterCollector(w.collectMetrics)
	}
	return w, nil
}

// initEnclave performs the SGX application-creation phase: create the
// enclave, add and measure the trusted image, sign and verify (Fig. 1).
func (w *World) initEnclave(opts Options, tImg *image.Image) error {
	numTCS := opts.NumTCS
	if numTCS <= 0 {
		numTCS = 64
	}
	encl, err := sgx.Create(w.cfg, w.clock, numTCS)
	if err != nil {
		return err
	}
	// The world owns the enclave from here: a failure below leaves it to
	// the caller's teardown.
	w.enclave = encl
	if err := encl.AddPages(tImg.Bytes()); err != nil {
		return err
	}
	signer := opts.Signer
	if signer == nil {
		if signer, err = sgx.DefaultSigner(); err != nil {
			return err
		}
	}
	ss, err := signer.Sign(encl.Measurement())
	if err != nil {
		return err
	}
	if err := encl.Init(ss); err != nil {
		return fmt.Errorf("world: enclave init: %w", err)
	}
	return nil
}

func (w *World) newRuntime(name string, trusted bool, img *image.Image, hc heap.Config) (*Runtime, error) {
	if hc.InitialSemi == 0 {
		hc = heap.Config{InitialSemi: 1 << 20, MaxSemi: 256 << 20}
	}
	var (
		h   *heap.Heap
		err error
	)
	encl := w.enclave
	tab := cycles.NewTab(w.clock)
	if trusted {
		h, err = heap.New(hc, func(size int) (heap.Backend, error) {
			m, err := encl.NewMemory(size)
			if err != nil {
				return nil, err
			}
			m.ChargeTo(tab)
			return m, nil
		})
	} else {
		h, err = heap.NewPlain(hc)
	}
	if err != nil {
		return nil, fmt.Errorf("world: %s heap: %w", name, err)
	}
	rt, err := newRuntime(w, name, trusted, img, h, tab)
	if err != nil {
		return nil, err
	}
	rt.encl = encl
	if reg := w.tel.Registry(); reg != nil {
		// Lock hold-time histogram of the registry's mutating critical
		// sections — with the shard-wait gauges, the contention telemetry
		// of the concurrent crossing engine.
		rt.reg.SetHoldObserver(reg.Histogram("montsalvat_registry_lock_hold_ns").Observe)
	}
	if trusted {
		rt.fs = shim.NewTrustedShim(encl, w.hostFS)
	} else {
		rt.fs = w.hostFS
	}
	return rt, nil
}

// runStaticInits executes every reachable <clinit> — the analog of
// GraalVM's build-time class initialisation whose results are shipped in
// the image heap (§2.2). It runs before main with no transition costs.
func (w *World) runStaticInits() error {
	for _, rt := range []*Runtime{w.trusted, w.untrusted} {
		if rt == nil {
			continue
		}
		for _, c := range rt.img.Classes() {
			ref := classmodel.MethodRef{Class: c.Name, Method: classmodel.StaticInitName}
			if !rt.img.MethodCompiled(ref) {
				continue
			}
			if _, err := rt.dispatch(rt.link(ref.Class, ref.Method), wire.Null(), nil, nil, nil); err != nil {
				return fmt.Errorf("world: <clinit> of %s: %w", c.Name, err)
			}
		}
	}
	return nil
}

// Mode returns the deployment mode.
func (w *World) Mode() Mode { return w.mode }

// Clock returns the world's cycle clock.
func (w *World) Clock() *cycles.Clock { return w.clock }

// Enclave returns the enclave (nil in ModeNoSGX, or while killed).
func (w *World) Enclave() *sgx.Enclave {
	w.stateMu.RLock()
	defer w.stateMu.RUnlock()
	return w.enclave
}

// Trusted returns the trusted runtime (nil in ModeNoSGX, or while
// killed).
func (w *World) Trusted() *Runtime {
	w.stateMu.RLock()
	defer w.stateMu.RUnlock()
	return w.trusted
}

// Untrusted returns the untrusted runtime (nil in ModeUnpartitionedSGX,
// or while killed).
func (w *World) Untrusted() *Runtime {
	w.stateMu.RLock()
	defer w.stateMu.RUnlock()
	return w.untrusted
}

// HostFS returns the untrusted filesystem.
func (w *World) HostFS() shim.FS { return w.hostFS }

func (w *World) nextHash() int64 { return w.hashCounter.Add(1) }

// RunMain invokes the application's main entry point and returns its
// result value. In partitioned and NoSGX modes main runs in the untrusted
// runtime (§5.3); in unpartitioned SGX mode the whole application —
// including main — executes inside the enclave behind a single ecall
// (§5.6).
func (w *World) RunMain() (wire.Value, error) {
	rt := w.untrusted
	if w.mode == ModeUnpartitionedSGX {
		rt = w.trusted
	}
	if rt == nil {
		return wire.Value{}, ErrWrongRuntime
	}
	prog := rt.img.Program()
	if prog.MainClass == "" {
		return wire.Value{}, errors.New("world: image has no main entry point")
	}
	defer w.gcStep(rt)
	var result wire.Value
	run := func() error {
		var err error
		result, err = rt.dispatch(rt.link(prog.MainClass, prog.MainMethod), wire.Null(), nil, nil, nil)
		return err
	}
	if w.mode == ModeUnpartitionedSGX {
		if err := w.enclave.Ecall(idMain, run); err != nil {
			return wire.Value{}, err
		}
		return result, nil
	}
	if err := run(); err != nil {
		return wire.Value{}, err
	}
	return result, nil
}

// ExecMain runs fn in the runtime that hosts the application main: the
// untrusted runtime in partitioned and NoSGX modes, the trusted runtime
// (behind an ecall) in unpartitioned SGX mode.
func (w *World) ExecMain(fn func(env classmodel.Env) error) error {
	return w.Exec(w.mode == ModeUnpartitionedSGX, fn)
}

// Exec runs fn with an execution environment in the chosen runtime — the
// harness used by benchmarks and examples to drive application objects
// directly. Trusted execution enters the enclave through one ecall.
func (w *World) Exec(trusted bool, fn func(env classmodel.Env) error) error {
	return w.ExecSpan(trusted, nil, nil, fn)
}

// ExecSpan is Exec with an inbound trace span and a lane attached to the
// execution frame. Proxy calls made by fn become children of sp, so a
// trace that began on another World (a gateway request) continues
// through this one, and cross the boundary on the lane (see Lane) when
// one is given; a trusted fn is itself handed to the lane.
// Nil sp and lane are exactly Exec.
func (w *World) ExecSpan(trusted bool, sp *telemetry.Span, lane *Lane, fn func(env classmodel.Env) error) error {
	w.stateMu.RLock()
	var rt *Runtime
	if trusted {
		rt = w.trusted
	} else {
		rt = w.untrusted
	}
	encl := w.enclave
	closed := lane != nil && lane.leave == nil
	w.stateMu.RUnlock()
	if rt == nil {
		return ErrWrongRuntime
	}
	if closed {
		return ErrLaneClosed
	}
	defer w.gcStep(rt)
	run := func() error {
		fr := rt.newFrame(sp)
		fr.lane = lane
		defer rt.releaseFrame(fr)
		return fn(fr.env())
	}
	switch {
	case trusted && encl != nil && lane != nil:
		return encl.Switchless(run)
	case trusted && encl != nil:
		return encl.Ecall(idExec, run)
	}
	return run()
}

// StartGCHelpers turns on the GC helpers of a partitioned world (§5.5:
// one scans the trusted list in the enclave, the other the untrusted
// list). A helper is a step, not a thread: at the exit of ExecSpan,
// RunMain and Runtime.Collect, the runtime they ran on and its peer are
// each scanned once, on the calling goroutine, if its collector has
// cleared a weak reference since its last scan (gcStep). The setting
// outlives Kill and Restart.
func (w *World) StartGCHelpers() {
	if w.mode == ModePartitioned {
		w.helpers.Store(true)
	}
}

// StopGCHelpers turns the GC helpers off.
func (w *World) StopGCHelpers() { w.helpers.Store(false) }

// gcStep runs the GC helpers' step (see StartGCHelpers) on rt and its
// peer, the generation rt belongs to. Only a collection clears a weak
// referent, so a scan at any other time would find no dead proxy. A
// failed scan is dropped: it is not the error of the operation whose
// exit ran it.
func (w *World) gcStep(rt *Runtime) {
	if !w.helpers.Load() {
		return
	}
	for _, r := range [2]*Runtime{rt, rt.peer} {
		if r != nil && r.sweepDue() {
			_ = w.SweepOnce(r)
		}
	}
}

// SweepOnce performs one GC-helper scan for rt: dead proxies are removed
// from the weak list and their mirrors released in the opposite runtime's
// registry, via a single batched transition. Sweeping the trusted runtime
// enters the enclave first (idGCHelper).
func (w *World) SweepOnce(rt *Runtime) error {
	if rt == nil {
		return ErrWrongRuntime
	}
	if rt.trusted && rt.encl != nil {
		return rt.encl.Ecall(idGCHelper, func() error { return w.sweep(rt) })
	}
	return w.sweep(rt)
}

// sweep is SweepOnce's body, run inside the enclave for the trusted
// runtime.
func (w *World) sweep(rt *Runtime) error {
	// SweepDead dereferences weak refs on rt's heap: hold rt's heap lock.
	rt.heapMu.Lock()
	dead, err := rt.weaks.SweepDead()
	rt.unlockHeap()
	if err != nil {
		return err
	}
	rt.recordSweep(len(dead))
	if len(dead) == 0 {
		return nil
	}
	opposite := rt.peer
	if opposite == nil {
		return nil
	}
	// In batching mode the releases join the runtime's call queue: the
	// flush runs any pending relay calls first — while their target
	// mirrors are still registered — then the releases, all in one
	// batched transition.
	if w.cfg.Batching && rt.queue != nil && rt.encl != nil {
		for _, hash := range dead {
			if err := rt.queue.Enqueue(boundary.Entry{ID: idGCSweep, Req: w.queuedCall("", gcReleaseMethod, hash, 0)}, nil); err != nil {
				return err
			}
		}
		return rt.queue.Flush(nil)
	}
	release := func() error {
		// Registry releases take only shard locks; the dropped mirror
		// handles are released via the opposite runtime's heap lock by
		// the registry's releaser hook — never while rt's is held.
		for _, hash := range dead {
			if _, err := opposite.reg.Release(hash); err != nil {
				return err
			}
		}
		return nil
	}
	// The removal message crosses the enclave boundary: the trusted
	// helper ocalls out, the untrusted helper ecalls in.
	if rt.encl != nil {
		sp := w.tel.Tracer().StartRoot("gc-sweep " + rt.name)
		sp.SetBatchSize(len(dead))
		err := rt.cross(idGCSweep, nil, sp, release)
		sp.Finish(err)
		return err
	}
	return release()
}

// queuedCall starts the ring-slot form of a call bound for a batching
// queue in a pooled buffer sized for all of it: a zero flags byte (no
// result wanted) and the call record's header. The caller appends the
// argsLen argument bytes. A flush copies the whole into a ring slot, or
// everything after the flags byte into a batch frame, and then recycles
// the buffer.
func (w *World) queuedCall(class, method string, hash int64, argsLen int) []byte {
	req := append(w.bufs.Get(1+wire.CallSize(class, method, hash, argsLen)), 0)
	return wire.AppendCallHeader(req, class, method, hash, argsLen)
}

// batchRun builds rt's queue-flush callback: cross the boundary once
// with the drained batch and run every call on the opposite runtime in
// order. Individual call errors are joined — one failing call does not
// stop the calls after it. A flush caused by a frame on a lane crosses
// on that lane (cross), never on a ring, and its calls run on it.
func (w *World) batchRun(rt *Runtime) func([]boundary.Entry, time.Duration, *Lane) error {
	return func(entries []boundary.Entry, waited time.Duration, lane *Lane) error {
		to := rt.peer
		if to == nil {
			return ErrWrongRuntime
		}
		// A flush is a trace root: one span for the whole coalesced
		// transition, parenting any calls its batched relays make.
		sp := w.tel.Tracer().StartRoot("batch-flush " + rt.name)
		sp.SetBatchSize(len(entries))
		sp.SetQueueWait(waited)
		defer func() {
			for _, e := range entries {
				w.bufs.Put(e.Req)
			}
		}()

		// Ring route first: each queued call becomes its own ring entry,
		// run one after another on one ring, without building (and MEE-
		// copying) a coalesced frame. Oversized or busy rings fall through
		// to the frame path; a ring closed part-way ran a prefix of the
		// batch, whose errors are kept, and only the rest goes by frame.
		rest, ringErr := entries, error(nil)
		if rt.encl != nil && rt.rings != nil && lane == nil {
			ran, rerr := rt.rings.TryBatch(sp, entries)
			if rt.rode(rerr, ran) {
				if ran == len(entries) {
					sp.Finish(rerr)
					return rerr
				}
				rt.ringFallbacks.Add(1)
				rest, ringErr = entries[ran:], rerr
			}
		}

		// Frame route: the record count, then each call's record — its
		// slot form minus the flags byte.
		size := binary.MaxVarintLen64
		for _, e := range rest {
			size += len(e.Req) - 1
		}
		frame := binary.AppendUvarint(w.bufs.Get(size), uint64(len(rest)))
		for _, e := range rest {
			frame = append(frame, e.Req[1:]...)
		}
		sp.AddMarshalBytes(len(frame))
		invoke := func() error {
			// The whole frame is read before any call runs: a corrupt
			// frame runs nothing.
			calls, err := wire.ReadFrame(frame)
			if err != nil {
				return fmt.Errorf("world: corrupt batch frame: %w", err)
			}
			var errs []error
			for c, ok := calls.Next(); ok; c, ok = calls.Next() {
				_, _, cerr := to.execCall(c, false, nil, sp, lane)
				errs = append(errs, cerr)
			}
			return errors.Join(errs...)
		}
		var err error
		if rt.encl != nil {
			// The frame crosses the boundary once, streaming through
			// the MEE like any marshalled argument buffer.
			w.clock.ChargeBytes(len(frame), simcfg.MEEBytesPerCycle)
			w.meeBytes.Add(uint64(len(frame)))
			err = rt.cross(idBatch, lane, sp, invoke)
		} else {
			err = invoke()
		}
		err = errors.Join(ringErr, err)
		sp.Finish(err)
		// Every call has run: the records' argument views into the
		// frame are dead, so the frame may be recycled.
		w.bufs.Put(frame)
		return err
	}
}

// ringHandler builds the far side of a ring call: it runs the opened
// slot on the receiving runtime rt, on the caller's goroutine. req and
// resp alias the same slot, which is safe because decoding copies every
// argument into Values before the dispatch runs and the response is
// encoded only afterwards. A trusted ring is resident in the enclave and
// runs each slot as enclave code (sgx.Enclave.RunResident). The cycles
// the call charges reach sp and the body-cycles histogram, as a full
// transition's do (Runtime.cross).
func (w *World) ringHandler(rt *Runtime) ring.Handler {
	return func(id int, req, resp []byte, sp *telemetry.Span) (out []byte, overflow bool, err error) {
		c, flags, err := wire.DecodeSlot(req)
		if err != nil {
			return nil, false, err
		}
		run := w.measureBody(sp, func() error {
			out, overflow, err = rt.execCall(c, flags&wire.CallWantResult != 0, resp, sp, nil)
			return err
		})
		if rt.trusted {
			err = rt.encl.RunResident(run)
		} else {
			err = run()
		}
		return out, overflow, err
	}
}

// Flush drains both runtimes' batching queues, running any pending
// result-independent calls. Errors of individual batched calls surface
// here, joined. A no-op that charges nothing when nothing is pending
// (or batching is off). persist.WorldKV runs it at the head of every
// trusted pass, so a checkpoint snapshot seals batched mutations too.
func (w *World) Flush() error {
	w.stateMu.RLock()
	trusted, untrusted := w.trusted, w.untrusted
	w.stateMu.RUnlock()
	return errors.Join(w.flushQueue(untrusted), w.flushQueue(trusted))
}

func (w *World) flushQueue(rt *Runtime) error {
	if rt == nil || rt.queue == nil || rt.queue.Len() == 0 {
		return nil
	}
	// The trusted runtime's flush calls out (an ocall); from outside the
	// enclave, enter it first, as a trusted SweepOnce does.
	if rt.trusted && rt.encl != nil && !rt.encl.InEnclave() {
		return rt.encl.Ecall(idExec, func() error { return rt.queue.Flush(nil) })
	}
	return rt.queue.Flush(nil)
}

// Close flushes pending batched calls, stops helpers, closes the rings
// and destroys the enclave. Flush errors are dropped; callers that must
// observe them (e.g. the gateway's graceful drain) use CloseErr.
func (w *World) Close() { _ = w.CloseErr() }

// CloseErr is Close with an error path: the final flush of both batching
// queues runs first and any batched-call errors it surfaces are
// returned, joined, after teardown completes.
func (w *World) CloseErr() error {
	err := w.Flush()
	w.StopGCHelpers()
	w.erings.Close()
	w.orings.Close()
	if w.enclave != nil {
		w.enclave.Destroy()
	}
	return err
}

// Stats aggregates runtime statistics.
type Stats struct {
	Mode          Mode
	Cycles        int64
	Enclave       sgx.Stats
	Dispatch      DispatchStats
	TrustedHeap   heap.Stats
	UntrustedHeap heap.Stats
	Trusted       RuntimeStats
	Untrusted     RuntimeStats
	// TrustedSweeps and UntrustedSweeps report each runtime's weak-list
	// scans (GC-helper steps and SweepOnce calls) and the mirrors they
	// released.
	TrustedSweeps   SweepStats
	UntrustedSweeps SweepStats
	Shim            shim.Stats
}

// collectMetrics is the telemetry collector of the world layer: it
// absorbs the snapshot-style statistics every subsystem already keeps —
// crossing routes, batching queues, enclave transitions, TCS occupancy,
// GC sweeps, registry sizes — into stable registry metrics at scrape
// time, so the producing hot paths stay untouched.
func (w *World) collectMetrics(reg *telemetry.Registry) {
	// The collector outlives any single enclave incarnation (it is
	// registered once, while Kill/Restart swap the world's guts), so it
	// reads under the state lock.
	w.stateMu.RLock()
	defer w.stateMu.RUnlock()
	reg.Gauge("montsalvat_world_cycles_total").Set(w.clock.Total())

	ds := w.DispatchStats()
	if w.mode == ModePartitioned && !w.killed {
		reg.Counter("montsalvat_boundary_calls_total", "route", "full").Set(ds.FullCalls)
		reg.Counter("montsalvat_boundary_calls_total", "route", "resident").Set(ds.SwitchlessCalls)
		reg.Counter("montsalvat_boundary_calls_total", "route", "ring").Set(ds.RingCalls)
		reg.Counter("montsalvat_boundary_calls_total", "route", "ring-fallback").Set(ds.RingFallbacks)
		reg.Counter("montsalvat_boundary_calls_total", "route", "ring-oversize").Set(ds.RingOversize)
	}
	for dir, g := range map[string]*ring.Group{"ecall": w.erings, "ocall": w.orings} {
		if g == nil {
			continue
		}
		gs := g.Stats()
		reg.Counter("montsalvat_ring_submits_total", "dir", dir).Set(gs.Submits)
		reg.Counter("montsalvat_ring_overflows_total", "dir", dir).Set(gs.Overflows)
		reg.Counter("montsalvat_ring_sealed_bytes_total", "dir", dir).Set(gs.SealedBytes)
	}
	if w.bufs != nil {
		ps := w.bufs.Stats()
		reg.Counter("montsalvat_bufpool_gets_total", "result", "hit").Set(ps.Hits)
		reg.Counter("montsalvat_bufpool_gets_total", "result", "miss").Set(ps.Misses)
		// Miss rate in basis points (1/100 of a percent): gauges are
		// integral.
		reg.Gauge("montsalvat_bufpool_miss_rate_bps").Set(int64(ps.MissRate() * 10000))
	}

	reg.Counter("montsalvat_boundary_batch_flushes_total").Set(ds.BatchFlushes)
	reg.Counter("montsalvat_boundary_batched_calls_total").Set(ds.BatchedCalls)

	if w.enclave != nil {
		es := w.enclave.Stats()
		reg.Counter("montsalvat_sgx_ecalls_total").Set(es.Ecalls)
		reg.Counter("montsalvat_sgx_ocalls_total").Set(es.Ocalls)
		reg.Gauge("montsalvat_sgx_heap_bytes_in_use").Set(int64(es.HeapBytesInUse))
		reg.Gauge("montsalvat_sgx_tcs_in_use").Set(int64(w.enclave.TCSInUse()))
		reg.Gauge("montsalvat_sgx_tcs_cap").Set(int64(w.enclave.TCSCap()))
	}

	for _, rt := range []*Runtime{w.trusted, w.untrusted} {
		if rt == nil {
			continue
		}
		ss := rt.SweepStats()
		reg.Counter("montsalvat_gc_sweeps_total", "runtime", rt.name).Set(ss.Sweeps)
		reg.Counter("montsalvat_gc_released_total", "runtime", rt.name).Set(ss.Released)
		rs := rt.Stats()
		reg.Counter("montsalvat_world_remote_calls_total", "runtime", rt.name).Set(rs.RemoteCallsOut)
		reg.Counter("montsalvat_world_proxies_created_total", "runtime", rt.name).Set(rs.ProxiesCreated)
		reg.Gauge("montsalvat_world_registry_size", "runtime", rt.name).Set(int64(rs.RegistrySize))
		reg.Gauge("montsalvat_world_weak_list_len", "runtime", rt.name).Set(int64(rs.WeakListLen))
		// Shard contention of the concurrent crossing engine: lock
		// acquisitions that found a registry shard held.
		reg.Gauge("montsalvat_registry_shard_waits", "runtime", rt.name).Set(int64(rt.reg.Waits()))
	}
}

// Stats returns a snapshot of all counters.
func (w *World) Stats() Stats {
	w.stateMu.RLock()
	defer w.stateMu.RUnlock()
	s := Stats{Mode: w.mode, Cycles: w.clock.Total(), Dispatch: w.DispatchStats()}
	if w.enclave != nil {
		s.Enclave = w.enclave.Stats()
	}
	if w.trusted != nil {
		s.TrustedHeap = w.trusted.HeapStats()
		s.Trusted = w.trusted.Stats()
		s.TrustedSweeps = w.trusted.SweepStats()
		if ts, ok := w.trusted.fs.(*shim.TrustedShim); ok {
			s.Shim = ts.Stats()
		}
	}
	if w.untrusted != nil {
		s.UntrustedHeap = w.untrusted.HeapStats()
		s.Untrusted = w.untrusted.Stats()
		s.UntrustedSweeps = w.untrusted.SweepStats()
	}
	return s
}

// LiveObjects folds the pinned objects of both runtimes plus their
// tracked proxy weak refs — the retention the crossing engine holds
// beyond its frames, which hold nothing once they close. At quiescence
// (queues flushed, sweeps drained, no frames active) the count is a
// pure function of the reachable cross-boundary objects, which is what
// the orderly explorer's refcount-drain invariant checks. Returns 0
// while killed.
func (w *World) LiveObjects() int {
	w.stateMu.RLock()
	defer w.stateMu.RUnlock()
	n := 0
	for _, rt := range []*Runtime{w.trusted, w.untrusted} {
		if rt == nil {
			continue
		}
		n += int(rt.pinned.Load())
		n += rt.weaks.Len()
	}
	return n
}
