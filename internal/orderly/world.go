package orderly

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/heap"
	"montsalvat/internal/persist"
	"montsalvat/internal/sgx"
	"montsalvat/internal/shim"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// Deliberate invariant mutations for the checker's own tests: a
// model checker that has never caught a planted bug proves nothing.
const (
	// BreakAckLostWrite acks a put whose journal append died at an
	// injected crash point — the "acked ⇒ durable" lie.
	BreakAckLostWrite = "ack-lost-write"
	// BreakLeakBaseline shifts the quiescent live-object baseline by
	// one — the refcount-drain invariant trips on the first quiesce.
	BreakLeakBaseline = "leak-baseline"
)

// WorldConfig tunes the world system. The zero value is the checked
// production configuration.
type WorldConfig struct {
	// Break plants one deliberate invariant violation (test-only);
	// see the Break* constants.
	Break string
}

// worldFx holds the build every world shares: the program is compiled
// once and the images are immutable; with the process-wide signer,
// which memoizes SIGSTRUCTs per measurement, that takes a rebuild from
// hundreds of milliseconds (RSA keygen + signing) to ~100µs, which is
// what makes replay-from-scratch backtracking affordable.
var worldFx struct {
	once  sync.Once
	err   error
	build *core.BuildResult
}

func worldFixture() (*core.BuildResult, error) {
	worldFx.once.Do(func() {
		// A small hash-index fan-out keeps the KVStore constructor —
		// which the explorer pays on every backtracking reset — off the
		// reset critical path without changing the serving surface.
		prog, err := demo.KVProgramWithBuckets(8)
		if err != nil {
			worldFx.err = err
			return
		}
		build, err := core.BuildPartitioned(prog)
		if err != nil {
			worldFx.err = err
			return
		}
		worldFx.build = build
	})
	return worldFx.build, worldFx.err
}

// orderlyWorldOptions is the world configuration every orderly system
// boots: shared images, small heaps (cheap kill/restart),
// batching and rings on so those planes are part of the explored
// surface, GC helpers off — sweeps are explorer actions, not steps
// every collection triggers.
func orderlyWorldOptions() world.Options {
	cfg := simcfg.Default()
	cfg.Batching = true
	cfg.Rings = true
	// One small ring per direction: a 4 KiB slot still fits the
	// ring-put payload.
	cfg.RingWorkers = 1
	cfg.RingSlotBytes = 4 << 10
	// The EPC residency tracker and arena are sized per world and the
	// arena is zeroed on allocation, so a small modelled EPC keeps
	// rebuilds cheap; orderly heaps max out at 256 KiB per semispace, so a
	// 4 MB EPC still never pages.
	cfg.EPCBytes = 2 << 20
	return world.Options{
		Cfg:           cfg,
		TrustedHeap:   heap.Config{InitialSemi: 128 << 10, MaxSemi: 256 << 10},
		UntrustedHeap: heap.Config{InitialSemi: 128 << 10, MaxSemi: 256 << 10},
		NumTCS:        8,
	}
}

// journalEntry is one enqueued-but-unflushed group-commit mutation.
type journalEntry struct{ key, val string }

// worldKeys is the bounded key universe; per-key version counters
// make the value of a state a function of how many puts each key has
// seen, so interleavings that only reorder independent actions
// collapse to one canonical state.
var worldKeys = []string{"a", "b", "r"}

// worldSystem drives one partitioned World and its durable manager
// through the boundary and recovery alphabet: ecall (get), nested
// ocall (put with its audit-log callback), group-commit enqueue and
// window close, batch flush, ring submit, GC sweep, checkpoint,
// crash-point arming, kill, recover, quiesce.
type worldSystem struct {
	cfg    WorldConfig
	w      *world.World
	fs     shim.FS
	secret sgx.PlatformSecret
	ctrs   *sgx.MemCounterStore
	kv     *persist.WorldKV
	mgr    *persist.Manager
	store  wire.Value

	// Model state, rebuilt only through actions — the canonical hash
	// is computed from it plus the live counters.
	alive       bool
	armed       bool
	incarnation int
	counts      map[string]int    // puts per key (value version source)
	applied     map[string]string // in-enclave contents
	acked       map[string]string // durability promises
	durable     map[string]string // exact post-recovery prediction
	pending     []journalEntry    // group queue mirror
	baseline    int               // quiescent live-object count
}

// WorldBuilder returns a Builder for the world system.
func WorldBuilder(cfg WorldConfig) Builder {
	return func() (System, error) {
		s := &worldSystem{
			cfg:     cfg,
			fs:      shim.NewMemFS(),
			ctrs:    sgx.NewMemCounterStore(),
			counts:  map[string]int{},
			applied: map[string]string{},
			acked:   map[string]string{},
			durable: map[string]string{},
		}
		secret, err := sgx.NewPlatformSecret()
		if err != nil {
			return nil, err
		}
		s.secret = secret
		if err := s.bootWorld(); err != nil {
			return nil, err
		}
		if err := s.bootStore(); err != nil {
			s.w.Close()
			return nil, err
		}
		if err := s.drain(); err != nil {
			s.w.Close()
			return nil, err
		}
		s.baseline = s.w.LiveObjects()
		s.alive = true
		return s, nil
	}
}

func (s *worldSystem) bootWorld() error {
	w, err := newOrderlyWorld()
	if err != nil {
		return err
	}
	s.w = w
	return nil
}

// newOrderlyWorld boots one exploration-tuned partitioned World from
// the shared fixture; the gateway system serves one through a
// smoke.Gateway, the world system drives one directly.
func newOrderlyWorld() (*world.World, error) {
	build, err := worldFixture()
	if err != nil {
		return nil, err
	}
	return world.NewPartitioned(orderlyWorldOptions(), build.TrustedImage, build.UntrustedImage, build.Transform.Interface)
}

// bootStore wires the durable side to the current enclave
// incarnation: fresh store object, fresh manager over the same
// untrusted files and counter store, recovery replay.
func (s *worldSystem) bootStore() error {
	var ref wire.Value
	err := s.w.Exec(false, func(env classmodel.Env) error {
		v, err := env.New(demo.KVStoreCls)
		if err != nil {
			return err
		}
		ref = v
		return nil
	})
	if err != nil {
		return err
	}
	if err := s.w.Untrusted().Pin(ref); err != nil {
		return err
	}
	s.store = ref
	if s.kv == nil {
		s.kv = persist.NewWorldKV("kv", s.w)
	}
	s.kv.SetRef(ref)
	ctr, err := sgx.NewMonotonicCounter(s.secret, s.ctrs, "orderly-kv")
	if err != nil {
		return err
	}
	m, err := persist.Open(persist.Options{
		FS:      s.fs,
		Enclave: s.w.Enclave(),
		Secret:  s.secret,
		Counter: ctr,
		Dir:     "p/",
	})
	if err != nil {
		return err
	}
	if err := m.Register(s.kv); err != nil {
		return err
	}
	if _, err := m.Recover(); err != nil {
		return err
	}
	s.mgr = m
	return nil
}

func (s *worldSystem) Alphabet() []Action {
	alive := func() bool { return s.alive }
	return []Action{
		{Name: "ecall-get", Enabled: alive, Apply: s.actGet},
		{Name: "ocall-put", Enabled: alive, Apply: func() error { return s.durablePut("a", 0) }},
		{Name: "ring-put", Enabled: alive, Apply: func() error { return s.durablePut("r", 2048) }},
		{Name: "group-put", Enabled: alive, Apply: s.actGroupPut},
		{Name: "window-close", Enabled: func() bool { return s.alive && len(s.pending) > 0 }, Apply: s.actWindowClose},
		{Name: "batch-flush", Enabled: alive, Apply: func() error { return s.w.Flush() }},
		{Name: "gc-sweep", Enabled: alive, Apply: s.actSweep},
		{Name: "checkpoint", Enabled: alive, Apply: s.actCheckpoint},
		{Name: "arm-crash", Enabled: func() bool { return s.alive && !s.armed }, Apply: s.actArm},
		{Name: "kill", Enabled: alive, Apply: s.actKill},
		{Name: "recover", Enabled: func() bool { return !s.alive }, Apply: s.actRecover},
		{Name: "quiesce", Enabled: alive, Apply: s.checkQuiesce},
	}
}

// nextVal is the deterministic value generator: key#version, padded
// to size so the ring-put payload rides a ring slot rather than an
// inline frame.
func (s *worldSystem) nextVal(key string, size int) string {
	s.counts[key]++
	v := fmt.Sprintf("%s#%d", key, s.counts[key])
	if size > len(v) {
		v += strings.Repeat("x", size-len(v))
	}
	return v
}

func (s *worldSystem) execPut(key, val string) error {
	return s.w.Exec(false, func(env classmodel.Env) error {
		_, err := env.Call(s.store, "put", wire.Str(key), wire.Str(val))
		return err
	})
}

func (s *worldSystem) readBack(key string) (val string, miss bool, err error) {
	err = s.w.Exec(false, func(env classmodel.Env) error {
		v, err := env.Call(s.store, "get", wire.Str(key))
		if err != nil {
			return err
		}
		if v.IsNull() {
			miss = true
			return nil
		}
		val, _ = v.AsStr()
		return nil
	})
	return val, miss, err
}

// processCrashed models an injected crash-point firing: the process
// is gone — enclave state, commit queue, and injector with it.
func (s *worldSystem) processCrashed() {
	s.alive = false
	s.armed = false
	s.pending = nil
	s.w.Kill()
}

// durablePut applies a put in-enclave (the nested-ocall path: the
// trusted store reports to the untrusted audit log mid-ecall), then
// journals it. The write is acked only if the append survives; an
// armed crash point firing mid-append kills the process with the
// write applied but unpromised.
func (s *worldSystem) durablePut(key string, pad int) error {
	val := s.nextVal(key, pad)
	if err := s.execPut(key, val); err != nil {
		return err
	}
	s.applied[key] = val
	if _, err := s.mgr.Append("kv", persist.OpPut, key, []byte(val)); err != nil {
		if persist.IsCrash(err) {
			s.processCrashed()
			if s.cfg.Break == BreakAckLostWrite {
				s.acked[key] = val // deliberately wrong: crash beat the append
			}
			return nil
		}
		return err
	}
	// The Append elected this caller leader of a commit term, and a
	// leader drains the whole queue: any enqueued group mutations
	// were committed (and thus acked) in the same term.
	for _, p := range s.pending {
		s.acked[p.key] = p.val
		s.durable[p.key] = p.val
	}
	s.pending = nil
	s.acked[key] = val
	s.durable[key] = val
	return nil
}

func (s *worldSystem) actGet() error {
	got, miss, err := s.readBack("a")
	if err != nil {
		return err
	}
	want, ok := s.applied["a"]
	if miss == ok || (ok && got != want) {
		return Violated("read-your-writes", "get(a) = %q (miss=%v), want %q (present=%v)", got, miss, want, ok)
	}
	return nil
}

func (s *worldSystem) actGroupPut() error {
	val := s.nextVal("b", 0)
	if err := s.execPut("b", val); err != nil {
		return err
	}
	s.applied["b"] = val
	s.mgr.GroupEnqueue("kv", persist.OpPut, "b", []byte(val))
	s.pending = append(s.pending, journalEntry{key: "b", val: val})
	return nil
}

func (s *worldSystem) actWindowClose() error {
	want := len(s.pending)
	n, err := s.mgr.GroupFlush()
	if err != nil {
		if persist.IsCrash(err) {
			// The whole group fails together: nothing was acked.
			s.processCrashed()
			return nil
		}
		return err
	}
	if n != want {
		return Violated("group-queue", "window close committed %d records, %d were enqueued", n, want)
	}
	for _, p := range s.pending {
		s.acked[p.key] = p.val
		s.durable[p.key] = p.val
	}
	s.pending = nil
	return nil
}

func (s *worldSystem) actSweep() error {
	if err := s.w.SweepOnce(s.w.Trusted()); err != nil {
		return err
	}
	return s.w.SweepOnce(s.w.Untrusted())
}

func (s *worldSystem) actCheckpoint() error {
	if err := s.mgr.Checkpoint(); err != nil {
		if persist.IsCrash(err) {
			s.processCrashed()
			return nil
		}
		return err
	}
	// The snapshot walks the live store, so it captures the full
	// applied state — including group-enqueued writes whose window has
	// not closed. Those writes become durable without ever being
	// acked, which is legal: acked ⇒ durable does not read backwards.
	s.durable = map[string]string{}
	for k, v := range s.applied {
		s.durable[k] = v
	}
	return nil
}

func (s *worldSystem) actArm() error {
	s.mgr.CrashInjector().Arm(persist.CrashBeforeAppend)
	s.armed = true
	return nil
}

func (s *worldSystem) actKill() error {
	s.w.Kill()
	s.alive = false
	s.armed = false // the injector dies with the manager
	s.pending = nil // enqueued writes die with the process
	return nil
}

// actRecover restarts the enclave, recovers durable state through a
// fresh manager, and audits the durability promises: recovery must
// reproduce the modelled durable timeline exactly (checkpoint
// snapshot plus every surviving journal append, in order), which in
// particular means every acked write comes back at its acked version
// or a later applied one.
func (s *worldSystem) actRecover() error {
	if err := s.w.Restart(); err != nil {
		return err
	}
	if err := s.bootStore(); err != nil {
		return err
	}
	s.incarnation++
	recovered := map[string]string{}
	for _, key := range worldKeys {
		v, miss, err := s.readBack(key)
		if err != nil {
			return err
		}
		if !miss {
			recovered[key] = v
		}
	}
	for _, key := range worldKeys {
		want, wantOK := s.durable[key]
		got, gotOK := recovered[key]
		if wantOK != gotOK || got != want {
			return Violated("durable-state", "recovered %s=%q (present=%v), durable timeline says %q (present=%v)", key, got, gotOK, want, wantOK)
		}
	}
	s.applied = recovered
	s.alive = true
	return nil
}

// drain flushes the transition batch queues and runs full sweep
// rounds until transient cross-boundary references are gone.
func (s *worldSystem) drain() error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if err := s.actSweep(); err != nil {
			return err
		}
		if err := s.w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// checkQuiesce drains and asserts the refcount invariant: at
// quiescence the pins and weak lists hold exactly the permanent
// references (the pinned store and its audit proxy), so the live count
// returns to the boot baseline.
func (s *worldSystem) checkQuiesce() error {
	if err := s.drain(); err != nil {
		return err
	}
	want := s.baseline
	if s.cfg.Break == BreakLeakBaseline {
		want++ // deliberately wrong baseline
	}
	if got := s.w.LiveObjects(); got != want {
		return Violated("refcount-drain", "%d live cross-boundary objects at quiescence, want %d", got, want)
	}
	return nil
}

func (s *worldSystem) Hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "alive=%v armed=%v inc=%d|", s.alive, s.armed, s.incarnation)
	if s.alive {
		st := s.mgr.Stats()
		fmt.Fprintf(h, "lsn=%d ckpt=%d wm=%d gq=%d live=%d|",
			st.LastLSN, st.Checkpoints, st.Watermark, s.mgr.GroupPending(), s.w.LiveObjects())
	}
	hashStringMap(h, "applied", s.applied)
	hashStringMap(h, "acked", s.acked)
	hashStringMap(h, "durable", s.durable)
	for _, p := range s.pending {
		fmt.Fprintf(h, "pend:%s=%s|", p.key, p.val)
	}
	hashIntMap(h, "counts", s.counts)
	return h.Sum64()
}

func (s *worldSystem) Check() error {
	// acked ⇒ durable, version-ordered: an acked write may be
	// superseded in the durable timeline by a later applied write (a
	// checkpoint snapshots unacked in-store state), but the timeline
	// may never hold an OLDER version than was acked — that would be
	// an acknowledged write that cannot survive recovery.
	for key, ackedVal := range s.acked {
		if valVersion(s.durable[key]) < valVersion(ackedVal) {
			return Violated("acked-durability", "acked write %s=%q but durable timeline has %q", key, ackedVal, s.durable[key])
		}
	}
	if !s.alive {
		return nil
	}
	if got := s.mgr.GroupPending(); got != len(s.pending) {
		return Violated("group-queue", "%d mutations parked in the commit queue, model has %d", got, len(s.pending))
	}
	st := s.mgr.Stats()
	if st.Watermark > st.LastLSN {
		return Violated("watermark", "checkpoint watermark %d ahead of last LSN %d", st.Watermark, st.LastLSN)
	}
	return nil
}

func (s *worldSystem) Close() {
	if s.w != nil {
		s.w.Close()
	}
}

// valVersion extracts the version counter from a key#n[xxx...] value
// (0 for a missing value).
func valVersion(val string) int {
	i := strings.IndexByte(val, '#')
	if i < 0 {
		return 0
	}
	n := 0
	for _, c := range val[i+1:] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func hashStringMap(h interface{ Write([]byte) (int, error) }, tag string, m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s:%s=%s|", tag, k, m[k])
	}
}

func hashIntMap(h interface{ Write([]byte) (int, error) }, tag string, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s:%s=%d|", tag, k, m[k])
	}
}
