package main

// stack.go builds every system the benchmark drives and is the only
// file that names product options. It uses what a default user gets:
// world.DefaultOptions, smoke.StartGateway, serve.Dial, fabric.New and
// persist.Open with no tuning knob set. The exceptions are the signer
// every world and fabric shares (benchSigner) and, on the rmi workload's
// world only, the three simcfg booleans that turn its crossing routes
// on and the trusted heap's cap (fullWorldSemi).
// A PR that removes an option named here is preceded by a benchmark PR.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/fabric"
	"montsalvat/internal/persist"
	"montsalvat/internal/serve"
	"montsalvat/internal/sgx"
	"montsalvat/internal/shim"
	"montsalvat/internal/smoke"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// kv is the synchronous key-value surface the client drives;
// *fabric.Router has it as is.
type kv interface {
	Put(key, val string) error
	Get(key string) (val string, ok bool, err error)
}

// stack is one running system under test, the client connected to it,
// and the public handles its statistics are read from.
type stack struct {
	client kv
	// world is the World whose Stats the benchmark may read: the
	// in-process world or the gateway's. Fabric shard worlds are private.
	world   *world.World
	gateway *smoke.Gateway
	fabric  *fabric.Fabric
	router  *fabric.Router
	// store is the pinned KVStore of a bare-world stack and lifecycles
	// the count of proxy life cycles run on it.
	store      wire.Value
	lifecycles atomic.Int64
	// full marks the rmi workload's world: every route live, capped heap.
	full bool
	// handshakes are the durations of the serve.Dial calls made.
	handshakes []time.Duration
	// bootTime is the share of set-up spent in fabric.New.
	bootTime time.Duration
	// fs is a durable gateway's untrusted filesystem; tmpDir its root
	// when that is a real directory.
	fs     shim.FS
	tmpDir string
	shards int
}

var benchPlatform = sgx.NewPlatformFromSeed([]byte("montsalvat-benchmark"))

// benchSigner is the one enclave author of a benchmark process. Left to
// themselves world.NewPartitioned and fabric.New generate a 2048-bit RSA
// key each, a search for random primes that takes 0.05 to 1.7 s by
// chance alone: it would be most of setup_s and all of its spread. One
// key is generated before anything is timed (main) and signs every
// world and fabric, as the deployments of one author are signed.
var benchSigner *sgx.Signer

// fullWorldSemi caps the trusted semispace of the rmi workload's world.
// The heap doubles its semispace at every collection, whatever the live
// size, up to the cap, and each doubling reallocates and copies the
// whole simulated memory. Under the default cap of 256 MiB an
// in-process workload is still on that ramp after a minute and its host
// metrics drift with it; 16 MiB is reached while the run warms up, so
// the timed rounds see a steady state, with a collection about every
// second, and both semispaces fit the 93.5 MB EPC.
const fullWorldSemi = 16 << 20

// entryRoots keep Entry's proxy in the untrusted image, as a
// reflection configuration would: no untrusted code of the KV program
// allocates an Entry, so the points-to analysis prunes the proxy and
// the rmi workload's proxy life cycle could not create one.
var entryRoots = []classmodel.MethodRef{
	{Class: demo.KVEntry, Method: classmodel.CtorName},
	{Class: demo.KVEntry, Method: "getkey"},
	{Class: demo.KVEntry, Method: "getvalue"},
}

// newWorld boots a partitioned World on the KV program: with library
// defaults, or, for the rmi workload, with every crossing route live,
// the GC helpers started, Entry creatable from outside and a capped
// trusted heap.
func newWorld(full bool) (*world.World, error) {
	opts := world.DefaultOptions()
	opts.Signer = benchSigner
	if !full {
		w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), opts)
		return w, err
	}
	opts.Cfg.Switchless = true
	opts.Cfg.Batching = true
	opts.Cfg.Rings = true
	opts.TrustedHeap.MaxSemi = fullWorldSemi
	build, err := core.BuildPartitionedConfig(demo.MustKVProgram(), core.BuildConfig{UntrustedReflection: entryRoots})
	if err != nil {
		return nil, err
	}
	w, err := world.NewPartitioned(opts, build.TrustedImage, build.UntrustedImage, build.Transform.Interface)
	if err != nil {
		return nil, err
	}
	w.StartGCHelpers()
	return w, nil
}

// newStore creates a KVStore from the untrusted side and pins it so the
// reference outlives the creating frame.
func newStore(w *world.World) (wire.Value, error) {
	var ref wire.Value
	err := w.Exec(false, func(env classmodel.Env) error {
		v, err := env.New(demo.KVStoreCls)
		ref = v
		return err
	})
	if err != nil {
		return wire.Value{}, err
	}
	return ref, w.Untrusted().Pin(ref)
}

// worldKV drives a KVStore through World.Exec and env.Call: rung R1 and
// the rmi workload.
type worldKV struct{ st *stack }

func (k worldKV) Put(key, val string) error {
	return k.st.world.Exec(false, func(env classmodel.Env) error {
		_, err := env.Call(k.st.store, "put", wire.Str(key), wire.Str(val))
		return err
	})
}

func (k worldKV) Get(key string) (val string, ok bool, err error) {
	err = k.st.world.Exec(false, func(env classmodel.Env) error {
		v, err := env.Call(k.st.store, "get", wire.Str(key))
		val, ok = v.AsStr()
		return err
	})
	return val, ok, err
}

// collectEvery is how many proxy life cycles pass between two
// collections of the untrusted heap. The KV program allocates so little
// outside the enclave (16 KB/s under the rmi workload) that the
// untrusted collector would not run once in a whole run: no dropped
// proxy would ever be seen dead, no mirror released, and the weak list
// the GC helpers scan every 2 ms would only grow. An application that
// allocates outside the enclave collects there all the time; the
// workload stands in for it.
const collectEvery = 32

// Lifecycle creates a trusted Entry from the untrusted side, calls it
// twice through its proxy and drops it with the frame, leaving the
// mirror for the GC helper to release once the untrusted collector has
// seen the proxy dead.
func (k worldKV) Lifecycle(key, val string) error {
	if k.st.lifecycles.Add(1)%collectEvery == 0 {
		if err := k.st.world.Untrusted().Collect(); err != nil {
			return err
		}
	}
	return k.st.world.Exec(false, func(env classmodel.Env) error {
		e, err := env.New(demo.KVEntry, wire.Str(key), wire.Str(val))
		if err != nil {
			return err
		}
		gotKey, err := env.Call(e, "getkey")
		if err != nil {
			return err
		}
		gotVal, err := env.Call(e, "getvalue")
		if err != nil {
			return err
		}
		if k, _ := gotKey.AsStr(); k != key {
			return fmt.Errorf("entry key %q read back as %q", key, k)
		}
		if v, _ := gotVal.AsStr(); v != val {
			return fmt.Errorf("entry %s value read back wrong (%d bytes)", key, len(v))
		}
		return nil
	})
}

func newWorldStack(full bool) (*stack, error) {
	w, err := newWorld(full)
	if err != nil {
		return nil, err
	}
	st := &stack{world: w, full: full}
	if st.store, err = newStore(w); err != nil {
		w.Close()
		return nil, err
	}
	st.client = worldKV{st}
	return st, nil
}

// sessionKV drives a KVStore handle over one attested gateway session.
type sessionKV struct {
	c *serve.Client
	h serve.Handle
}

func (k sessionKV) Put(key, val string) error {
	_, err := k.c.Call(k.h, "put", wire.Str(key), wire.Str(val))
	return err
}

func (k sessionKV) Get(key string) (string, bool, error) {
	v, err := k.c.Call(k.h, "get", wire.Str(key))
	if err != nil {
		return "", false, err
	}
	val, ok := v.AsStr()
	return val, ok, nil
}

type fsKind int

const (
	fsNone fsKind = iota // non-durable gateway
	fsMem
	fsDir
)

// listingDirFS is shim.DirFS with a List that also reports the files of
// the "p/" durable root. DirFS.List reads only the root directory, so
// persist, which names its files "p/...", finds none of them on
// recovery (README, "found while building"). Append, ReadAt and Size,
// the calls the timed path makes, are DirFS's own.
type listingDirFS struct {
	*shim.DirFS
	root string
}

func (fs listingDirFS) List() ([]string, error) {
	names, err := fs.DirFS.List()
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(filepath.Join(fs.root, "p"))
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		names = append(names, "p/"+e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// newDirFS makes a DirFS under os.TempDir. DirFS never creates the "p/"
// prefix directory the durable gateway writes into, so it is made here.
// Nothing is fsynced: the product has no flush call.
func newDirFS() (shim.FS, string, error) {
	tmp, err := os.MkdirTemp("", "montsalvat-benchmark-")
	if err != nil {
		return nil, "", err
	}
	if err := os.Mkdir(filepath.Join(tmp, "p"), 0o755); err != nil {
		os.RemoveAll(tmp)
		return nil, "", err
	}
	fs, err := shim.NewDirFS(tmp)
	if err != nil {
		os.RemoveAll(tmp)
		return nil, "", err
	}
	return listingDirFS{fs, tmp}, tmp, nil
}

func newGatewayStack(kind fsKind) (*stack, error) {
	w, err := newWorld(false)
	if err != nil {
		return nil, err
	}
	st := &stack{world: w}
	opts := smoke.GatewayOptions{World: w, Platform: benchPlatform, Durable: kind != fsNone}
	switch kind {
	case fsMem:
		st.fs = shim.NewMemFS()
	case fsDir:
		if st.fs, st.tmpDir, err = newDirFS(); err != nil {
			w.Close()
			return nil, err
		}
	}
	opts.FS = st.fs
	if st.gateway, err = smoke.StartGateway(opts); err != nil {
		st.close()
		return nil, err
	}
	if err := st.dial(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// dial opens the client's attested session, closing the one before it,
// and resolves its store handle: the exported durable store, or a store
// of the session's own on a non-durable gateway.
func (st *stack) dial() error {
	if old, ok := st.client.(sessionKV); ok {
		old.c.Close()
	}
	start := time.Now()
	c, err := serve.Dial(st.gateway.Addr(), st.gateway.ClientConfig())
	if err != nil {
		return err
	}
	st.handshakes = append(st.handshakes, time.Since(start))
	var h serve.Handle
	if st.gateway.Manager() != nil {
		h, err = c.Bind("kv")
	} else {
		h, err = c.New(demo.KVStoreCls)
	}
	st.client = sessionKV{c, h}
	return err
}

// newFabricStack boots a fabric and the client's router. nil for build
// means fabric.New builds the KV program itself.
func newFabricStack(shards, replicas int, build *core.BuildResult) (*stack, error) {
	start := time.Now()
	f, err := fabric.New(fabric.Options{Shards: shards, Replicas: replicas, Build: build, Signer: benchSigner})
	if err != nil {
		return nil, err
	}
	st := &stack{fabric: f, bootTime: time.Since(start), shards: shards}
	st.router = f.Client(fabric.RouterConfig{})
	st.client = st.router
	return st, nil
}

// walBytes is the size of the write-ahead log segments on a durable
// gateway's filesystem.
func (st *stack) walBytes() (int64, error) {
	names, err := st.fs.List()
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, name := range names {
		if strings.HasPrefix(name, "p/wal-") {
			n, err := st.fs.Size(name)
			if err != nil {
				return 0, err
			}
			sum += n
		}
	}
	return sum, nil
}

// heapSettled reports whether the trusted heap has stopped growing: it
// always has, for the purposes of a run, except on the rmi workload's
// world, which reaches its cap within seconds.
func (st *stack) heapSettled() bool {
	return !st.full || st.world.Stats().TrustedHeap.SemiSize >= fullWorldSemi
}

// cycles is the stack's total on the virtual-cycle ledger.
func (st *stack) cycles() int64 {
	if st.world != nil {
		return st.world.Clock().Total()
	}
	var sum int64
	for _, c := range st.fabric.ShardBusyCycles() {
		sum += c
	}
	return sum
}

// checkpoint seals the durable state and truncates the write-ahead log
// behind it, as an operator's periodic checkpoint would. Under default
// options nothing else ever does: the log only grows, and with it the
// per-put cost of shipping (README, "found while building").
func (st *stack) checkpoint() error {
	switch {
	case st.fabric != nil:
		for id := 0; id < st.shards; id++ {
			if err := st.fabric.Checkpoint(id); err != nil {
				return err
			}
		}
	case st.recoverable():
		return st.gateway.Manager().Checkpoint()
	}
	return nil
}

// recoverable reports whether the stack keeps durable state that a
// restart must bring back.
func (st *stack) recoverable() bool {
	return st.fabric != nil || (st.gateway != nil && st.gateway.Manager() != nil)
}

// restart kills the serving enclave(s) and brings the stack back,
// returning one duration per product recovery call: World.Kill+Restart
// (no durable state: the store comes back empty), Gateway.CrashRecover,
// or Fabric.Promote for every shard that has a standby.
func (st *stack) restart() ([]time.Duration, error) {
	switch {
	case st.fabric != nil:
		var out []time.Duration
		for id := 0; id < st.shards; id++ {
			expect, err := st.fabric.KillShard(id)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if err := st.fabric.Promote(id, expect); err != nil {
				return nil, err
			}
			out = append(out, time.Since(start))
		}
		return out, nil
	case st.gateway != nil:
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		start := time.Now()
		if err := st.gateway.CrashRecover(ctx, func() error { return nil }); err != nil {
			return nil, err
		}
		d := time.Since(start)
		return []time.Duration{d}, st.dial()
	default:
		start := time.Now()
		st.world.Kill()
		if err := st.world.Restart(); err != nil {
			return nil, err
		}
		d := time.Since(start)
		var err error
		st.store, err = newStore(st.world)
		return []time.Duration{d}, err
	}
}

func (st *stack) close() {
	if s, ok := st.client.(sessionKV); ok && s.c != nil {
		s.c.Close()
	}
	if st.router != nil {
		st.router.Close()
	}
	if st.gateway != nil {
		st.gateway.Close()
	}
	if st.fabric != nil {
		st.fabric.Close()
	}
	if st.world != nil {
		st.world.Close()
	}
	if st.tmpDir != "" {
		os.RemoveAll(st.tmpDir)
	}
}

// rung is one step of the traced ladder: a stack that adds one layer to
// the rung below it. self is the stem of the metrics that layer's self
// time is reported as (<self>_us, <self>_cycles).
type rung struct {
	name  string
	self  string
	build func() (*stack, error)
}

var (
	rungWorld          = rung{"R1-world", "world.self", func() (*stack, error) { return newWorldStack(false) }}
	rungWorldFull      = rung{"R1-world-full", "world.self", func() (*stack, error) { return newWorldStack(true) }}
	rungGateway        = rung{"R2-gateway", "serve.self", func() (*stack, error) { return newGatewayStack(fsNone) }}
	rungDurableMem     = rung{"R3-durable-memfs", "persist.self", func() (*stack, error) { return newGatewayStack(fsMem) }}
	rungDurableDir     = rung{"R3b-durable-dirfs", "shim.self", func() (*stack, error) { return newGatewayStack(fsDir) }}
	rungFabric1        = rung{"R4-fabric-1x0", "fabric.route_self", func() (*stack, error) { return newFabricStack(1, 0, nil) }}
	rungFabric1Replica = rung{"R5-fabric-1x1", "fabric.ship_self", func() (*stack, error) { return newFabricStack(1, 1, nil) }}
	rungFabric2        = rung{"R4-fabric-2x0", "fabric.route_self", func() (*stack, error) { return newFabricStack(2, 0, nil) }}
	rungFabric2Replica = rung{"R5-fabric-2x1", "fabric.ship_self", func() (*stack, error) { return newFabricStack(2, 1, nil) }}
)

// probeStore is a standalone persist.Manager over fs with one
// registered map state: the leaf the persist.append_us and
// persist.recover_ms probes time. It needs an enclave for the sealing
// key, which the caller's world lends.
type probeStore struct {
	fs     shim.FS
	secret sgx.PlatformSecret
	ctrs   *sgx.MemCounterStore
	w      *world.World
}

func newProbeStore(w *world.World, fs shim.FS) (*probeStore, error) {
	secret, err := sgx.NewPlatformSecret()
	if err != nil {
		return nil, err
	}
	return &probeStore{fs: fs, secret: secret, ctrs: sgx.NewMemCounterStore(), w: w}, nil
}

// open builds a manager over the probe's files and recovers it.
func (p *probeStore) open() (*persist.Manager, persist.Report, error) {
	ctr, err := sgx.NewMonotonicCounter(p.secret, p.ctrs, "probe")
	if err != nil {
		return nil, persist.Report{}, err
	}
	m, err := persist.Open(persist.Options{FS: p.fs, Enclave: p.w.Enclave(), Secret: p.secret, Counter: ctr, Dir: "p/"})
	if err != nil {
		return nil, persist.Report{}, err
	}
	if err := m.Register(persist.NewMapState("kv")); err != nil {
		return nil, persist.Report{}, err
	}
	rep, err := m.Recover()
	return m, rep, err
}

// seal is the sgx layer's leaf: one Enclave.Seal of data under the
// default policy.
func (p *probeStore) seal(data []byte) ([]byte, error) {
	return p.w.Enclave().Seal(p.secret, sgx.SealToMRSIGNER, data, []byte("probe"))
}

var errNoLifecycle = errors.New("benchmark: lifecycle op on a stack that is not a bare world")

// quiesce lands result-independent calls still parked in a bare
// world's batch queues, so a cycle reading covers them.
func (st *stack) quiesce() {
	if st.world != nil && st.gateway == nil {
		_ = st.world.Flush() // a failed flush surfaces on the next call
	}
}
