package persist

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"montsalvat/internal/cycles"
	"montsalvat/internal/sgx"
	"montsalvat/internal/shim"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/telemetry"
)

// testEnclave builds an initialized enclave from image — a fresh one
// per call, all signed by the process-wide author, so "restarting the
// enclave" is just another call (optionally with an upgraded image).
func testEnclave(t *testing.T, image string) *sgx.Enclave {
	t.Helper()
	clk := cycles.New(simcfg.CPUHz)
	e, err := sgx.Create(simcfg.Default(), clk, 4)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := e.AddPages([]byte(image)); err != nil {
		t.Fatalf("AddPages: %v", err)
	}
	signer, err := sgx.DefaultSigner()
	if err != nil {
		t.Fatalf("DefaultSigner: %v", err)
	}
	ss, err := signer.Sign(e.Measurement())
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := e.Init(ss); err != nil {
		t.Fatalf("Init: %v", err)
	}
	return e
}

// env is everything that survives a simulated machine restart: the
// untrusted filesystem, the platform secret, and the counter store.
type env struct {
	t      *testing.T
	fs     *shim.MemFS
	secret sgx.PlatformSecret
	store  *sgx.MemCounterStore
}

func newEnv(t *testing.T) *env {
	t.Helper()
	secret, err := sgx.NewPlatformSecret()
	if err != nil {
		t.Fatal(err)
	}
	return &env{t: t, fs: shim.NewMemFS(), secret: secret, store: sgx.NewMemCounterStore()}
}

// open builds a Manager over the env with a fresh enclave — one
// "boot". Register states before calling Recover.
func (e *env) open(opts Options, states ...State) *Manager {
	e.t.Helper()
	opts.FS = e.fs
	opts.Secret = e.secret
	if opts.Enclave == nil {
		opts.Enclave = testEnclave(e.t, "persist test image")
	}
	if opts.Counter == nil {
		ctr, err := sgx.NewMonotonicCounter(e.secret, e.store, "persist")
		if err != nil {
			e.t.Fatal(err)
		}
		opts.Counter = ctr
	}
	m, err := Open(opts)
	if err != nil {
		e.t.Fatal(err)
	}
	for _, s := range states {
		if err := m.Register(s); err != nil {
			e.t.Fatal(err)
		}
	}
	return m
}

// snapshotFiles copies the full untrusted storage — what a host-side
// attacker (or a backup) can capture and later restore.
func (e *env) snapshotFiles() map[string][]byte {
	e.t.Helper()
	names, err := e.fs.List()
	if err != nil {
		e.t.Fatal(err)
	}
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		size, err := e.fs.Size(name)
		if err != nil {
			e.t.Fatal(err)
		}
		buf, err := e.fs.ReadAt(name, 0, int(size))
		if err != nil {
			e.t.Fatal(err)
		}
		out[name] = buf
	}
	return out
}

func (e *env) restoreFiles(files map[string][]byte) {
	e.t.Helper()
	names, err := e.fs.List()
	if err != nil {
		e.t.Fatal(err)
	}
	for _, name := range names {
		if err := e.fs.Remove(name); err != nil {
			e.t.Fatal(err)
		}
	}
	for name, buf := range files {
		if err := e.fs.WriteAt(name, 0, buf); err != nil {
			e.t.Fatal(err)
		}
	}
}

func mustAppend(t *testing.T, m *Manager, state, key, val string) uint64 {
	t.Helper()
	lsn, err := m.Append(state, OpPut, key, []byte(val))
	if err != nil {
		t.Fatalf("Append(%s=%s): %v", key, val, err)
	}
	return lsn
}

func assertKV(t *testing.T, s *MapState, want map[string]string) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("state has %d keys %v, want %d", s.Len(), s.Keys(), len(want))
	}
	for k, v := range want {
		got, ok := s.Get(k)
		if !ok || string(got) != v {
			t.Fatalf("state[%q] = %q, %v; want %q", k, got, ok, v)
		}
	}
}

func TestPersistRoundTrip(t *testing.T) {
	e := newEnv(t)
	kv := NewMapState("kv")
	m := e.open(Options{Dir: "p/"}, kv)

	rep, err := m.Recover()
	if err != nil {
		t.Fatalf("fresh Recover: %v", err)
	}
	if rep.CheckpointStamp != 0 || rep.ReplayedRecords != 0 {
		t.Fatalf("fresh recovery report: %+v", rep)
	}

	want := map[string]string{}
	for _, kvp := range [][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}} {
		kv.Put(kvp[0], []byte(kvp[1]))
		mustAppend(t, m, "kv", kvp[0], kvp[1])
		want[kvp[0]] = kvp[1]
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations live only in the WAL tail.
	kv.Put("d", []byte("4"))
	mustAppend(t, m, "kv", "d", "4")
	want["d"] = "4"
	// Overwrite a checkpointed key, and delete one.
	kv.Put("a", []byte("1'"))
	mustAppend(t, m, "kv", "a", "1'")
	want["a"] = "1'"
	kv.Delete("b")
	if _, err := m.Append("kv", OpDelete, "b", nil); err != nil {
		t.Fatal(err)
	}
	delete(want, "b")

	// "Restart": new enclave (same signer), new manager, empty state.
	kv2 := NewMapState("kv")
	m2 := e.open(Options{Dir: "p/"}, kv2)
	rep, err = m2.Recover()
	if err != nil {
		t.Fatalf("Recover after restart: %v", err)
	}
	assertKV(t, kv2, want)
	if rep.ReplayedRecords != 3 {
		t.Fatalf("replayed %d records, want 3", rep.ReplayedRecords)
	}
	if rep.CheckpointStamp == 0 {
		t.Fatal("recovery did not use a checkpoint")
	}
	// The recovered log is live: appends and checkpoints keep working.
	kv2.Put("e", []byte("5"))
	mustAppend(t, m2, "kv", "e", "5")
	want["e"] = "5"
	if err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	kv3 := NewMapState("kv")
	m3 := e.open(Options{Dir: "p/"}, kv3)
	if _, err := m3.Recover(); err != nil {
		t.Fatal(err)
	}
	assertKV(t, kv3, want)
}

func TestPersistRequiresRecover(t *testing.T) {
	e := newEnv(t)
	m := e.open(Options{}, NewMapState("kv"))
	if _, err := m.Append("kv", OpPut, "k", nil); !errors.Is(err, ErrNotRecovered) {
		t.Fatalf("Append: %v, want ErrNotRecovered", err)
	}
	if err := m.Checkpoint(); !errors.Is(err, ErrNotRecovered) {
		t.Fatalf("Checkpoint: %v, want ErrNotRecovered", err)
	}
}

func TestAppendUnregisteredState(t *testing.T) {
	e := newEnv(t)
	m := e.open(Options{}, NewMapState("kv"))
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append("nope", OpPut, "k", nil); err == nil {
		t.Fatal("append to unregistered state accepted")
	}
}

// TestGroupCommitConcurrentAppends drives many writers through the
// commit queue and proves the contract: every Append returns a unique
// LSN, the LSN space is dense, batching actually happens (fewer sealed
// frames than records), and a fresh recovery replays every mutation
// out of the multi-record frames.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	const writers, perWriter = 8, 40
	e := newEnv(t)
	kv := NewMapState("kv")
	m := e.open(Options{Dir: "p/"}, kv)
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}

	var (
		mu   sync.Mutex
		lsns = map[uint64]string{}
		wg   sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%02d-%03d", w, i)
				kv.Put(k, []byte(k))
				lsn, err := m.Append("kv", OpPut, k, []byte(k))
				if err != nil {
					t.Errorf("append %s: %v", k, err)
					return
				}
				mu.Lock()
				if prev, dup := lsns[lsn]; dup {
					t.Errorf("LSN %d returned for both %s and %s", lsn, prev, k)
				}
				lsns[lsn] = k
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	total := writers * perWriter
	if len(lsns) != total {
		t.Fatalf("got %d distinct LSNs, want %d", len(lsns), total)
	}
	// Dense: recovery assigned 1..N before the workload, so the
	// workload's LSNs are exactly a contiguous run.
	var lo, hi uint64
	for lsn := range lsns {
		if lo == 0 || lsn < lo {
			lo = lsn
		}
		if lsn > hi {
			hi = lsn
		}
	}
	if hi-lo+1 != uint64(total) {
		t.Fatalf("LSN range [%d,%d] not dense for %d appends", lo, hi, total)
	}

	st := m.Stats()
	if st.GroupedRecords != uint64(total) {
		t.Fatalf("GroupedRecords = %d, want %d", st.GroupedRecords, total)
	}
	if st.GroupCommits == 0 || st.GroupCommits >= uint64(total) {
		// Every leader yields once before sealing, so with 8 writers
		// runnable every frame being a singleton would mean the yield
		// never let a single follower reach the queue.
		t.Fatalf("GroupCommits = %d for %d appends: no batching", st.GroupCommits, total)
	}
	t.Logf("batching: %d records in %d commits (mean %.1f)",
		st.GroupedRecords, st.GroupCommits, float64(st.GroupedRecords)/float64(st.GroupCommits))

	// Recovery replays the frames (no checkpoint covered them).
	kv2 := NewMapState("kv")
	m2 := e.open(Options{Dir: "p/"}, kv2)
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, k := range lsns {
		got, ok := kv2.Get(k)
		if !ok || string(got) != k {
			t.Fatalf("record %q lost across recovery: %q, %v", k, got, ok)
		}
	}
}

// TestGroupCommitAutoCheckpoint proves the auto-checkpoint cadence
// counts records, not frames: one frame of four records crosses a
// cadence of four exactly like four solo appends do.
func TestGroupCommitAutoCheckpoint(t *testing.T) {
	e := newEnv(t)
	kv := NewMapState("kv")
	m := e.open(Options{Dir: "p/", CheckpointEvery: 4}, kv)
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	ckpts := m.Stats().Checkpoints
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("k%d", i)
		kv.Put(k, []byte("v"))
		mustAppend(t, m, "kv", k, "v")
	}
	for i := 4; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		kv.Put(k, []byte("v"))
		m.GroupEnqueue("kv", OpPut, k, []byte("v"))
	}
	if n, err := m.GroupFlush(); n != 4 || err != nil {
		t.Fatalf("flush = (%d, %v), want one frame of 4", n, err)
	}
	st := m.Stats()
	if got := st.Checkpoints - ckpts; got != 2 {
		t.Fatalf("auto-checkpoints after 4 solo + 4 grouped appends: %d, want 2", got)
	}
	if st.GroupCommits != 5 || st.GroupedRecords != 8 {
		t.Fatalf("frames = %d, records = %d, want 5 and 8", st.GroupCommits, st.GroupedRecords)
	}
}

// TestGroupCommitUnregisteredState pins that a bad state name fails the
// whole group together — acceptable, since an unregistered state is a
// programming error, and in practice every group member targets the
// same state — and that the next commit is unaffected.
func TestGroupCommitUnregisteredState(t *testing.T) {
	e := newEnv(t)
	kv := NewMapState("kv")
	m := e.open(Options{}, kv)
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	m.GroupEnqueue("kv", OpPut, "bystander", []byte("v"))
	if _, err := m.Append("nope", OpPut, "k", []byte("v")); err == nil {
		t.Fatal("append to unregistered state accepted")
	}
	if _, err := m.Append("kv", OpPut, "k", []byte("v")); err != nil {
		t.Fatalf("append after failed group: %v", err)
	}
	kv2 := NewMapState("kv")
	if _, err := e.open(Options{}, kv2).Recover(); err != nil {
		t.Fatal(err)
	}
	assertKV(t, kv2, map[string]string{"k": "v"}) // the bystander failed with its group
}

func TestSegmentRotationAndRecovery(t *testing.T) {
	e := newEnv(t)
	kv := NewMapState("kv")
	// Tiny segments: every append rotates within a few records.
	m := e.open(Options{SegmentBytes: 256}, kv)
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 40; i++ {
		k := string(rune('a'+i%26)) + string(rune('0'+i/26))
		v := strings.Repeat("x", 10+i%7)
		kv.Put(k, []byte(v))
		mustAppend(t, m, "kv", k, v)
		want[k] = v
	}
	segs, err := m.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments after 40 small appends", len(segs))
	}

	kv2 := NewMapState("kv")
	m2 := e.open(Options{SegmentBytes: 256}, kv2)
	rep, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplayedRecords != 40 {
		t.Fatalf("replayed %d, want 40", rep.ReplayedRecords)
	}
	assertKV(t, kv2, want)
}

func TestAutoCheckpointTruncatesLog(t *testing.T) {
	e := newEnv(t)
	kv := NewMapState("kv")
	m := e.open(Options{CheckpointEvery: 5}, kv)
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	base := m.Stats().Checkpoints // Recover takes one
	for i := 0; i < 23; i++ {
		k := string(rune('a' + i))
		kv.Put(k, []byte("v"))
		mustAppend(t, m, "kv", k, "v")
	}
	s := m.Stats()
	if got := s.Checkpoints - base; got != 4 {
		t.Fatalf("auto checkpoints = %d, want 4", got)
	}
	// Truncation keeps exactly the active segment and one checkpoint.
	segs, err := m.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("%d segments survive checkpointing, want 1", len(segs))
	}
	ckpts, err := m.listCheckpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 1 {
		t.Fatalf("%d checkpoints survive, want 1", len(ckpts))
	}
}

// TestCheckpointSnapshotErrorCommitsNothing pins the failure path of
// the commit protocol's snapshot step: a state whose Snapshot fails
// makes Checkpoint return that error before the counter moves, so the
// live checkpoint stays the one recovery committed.
func TestCheckpointSnapshotErrorCommitsNothing(t *testing.T) {
	e := newEnv(t)
	kv := &failingSnapshot{MapState: NewMapState("kv")}
	m := e.open(Options{}, kv)
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, m, "kv", "a", "1")
	epoch := m.Stats().Epoch
	kv.err = errors.New("snapshot failed")
	if err := m.Checkpoint(); !errors.Is(err, kv.err) {
		t.Fatalf("Checkpoint with a failing snapshot: %v, want %v", err, kv.err)
	}
	if got := m.Stats().Epoch; got != epoch {
		t.Fatalf("epoch %d after a failed checkpoint, want %d", got, epoch)
	}
}

// failingSnapshot is a MapState whose Snapshot returns err once set.
type failingSnapshot struct {
	*MapState
	err error
}

func (f *failingSnapshot) Snapshot() ([]byte, error) {
	if f.err != nil {
		return nil, f.err
	}
	return f.MapState.Snapshot()
}

func TestRecoverRejectsTamperedCounter(t *testing.T) {
	e := newEnv(t)
	m := e.open(Options{}, NewMapState("kv"))
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, m, "kv", "k", "v")
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The rebooted counter opens fine, then the host rewrites the stored
	// value (keeping the old MAC) underneath it.
	ctr, err := sgx.NewMonotonicCounter(e.secret, e.store, "persist")
	if err != nil {
		t.Fatal(err)
	}
	_, mac, _, _ := e.store.LoadCounter("persist")
	if err := e.store.StoreCounter("persist", 1, mac); err != nil {
		t.Fatal(err)
	}
	m2 := e.open(Options{Counter: ctr}, NewMapState("kv"))
	if _, err := m2.Recover(); !errors.Is(err, sgx.ErrCounterTampered) {
		t.Fatalf("Recover over tampered counter: %v", err)
	}
	// And a counter that fails verification at boot is caught even
	// earlier, in NewMonotonicCounter.
	if _, err := sgx.NewMonotonicCounter(e.secret, e.store, "persist"); !errors.Is(err, sgx.ErrCounterTampered) {
		t.Fatalf("reopen tampered counter: %v", err)
	}
}

func TestFSCounterStore(t *testing.T) {
	fs := shim.NewMemFS()
	secret, err := sgx.NewPlatformSecret()
	if err != nil {
		t.Fatal(err)
	}
	store := NewFSCounterStore(fs, "p/")
	c, err := sgx.NewMonotonicCounter(secret, store, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Increment(); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen over the same files.
	c2, err := sgx.NewMonotonicCounter(secret, store, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := c2.Read(); err != nil || v != 3 {
		t.Fatalf("reopened = %d, %v", v, err)
	}
	// Flip a bit in the counter file: tampered.
	if err := fs.WriteAt("p/counter-ckpt", 3, []byte{0x5a}); err != nil {
		t.Fatal(err)
	}
	if _, err := sgx.NewMonotonicCounter(secret, store, "ckpt"); !errors.Is(err, sgx.ErrCounterTampered) {
		t.Fatalf("tampered file: %v", err)
	}
}

func TestManagerStatsAndMetrics(t *testing.T) {
	e := newEnv(t)
	kv := NewMapState("kv")
	reg := telemetry.NewRegistry()
	m := e.open(Options{Telemetry: reg}, kv)
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, m, "kv", "k", "value")
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Appends != 1 || s.AppendedBytes == 0 {
		t.Fatalf("append stats: %+v", s)
	}
	if s.Checkpoints != 2 || s.Recoveries != 1 {
		t.Fatalf("lifecycle stats: %+v", s)
	}
	if s.Epoch == 0 || s.Watermark == 0 {
		t.Fatalf("epoch/watermark: %+v", s)
	}
	// The registered collector exports the montsalvat_persist_* names.
	_ = reg.Snapshot()
	if got := reg.Counter("montsalvat_persist_wal_appends_total").Value(); got != 1 {
		t.Fatalf("wal_appends metric = %d, want 1", got)
	}
	if got := reg.Counter("montsalvat_persist_checkpoints_total").Value(); got != 2 {
		t.Fatalf("checkpoints metric = %d, want 2", got)
	}
	if got := reg.Counter("montsalvat_persist_recoveries_total").Value(); got != 1 {
		t.Fatalf("recoveries metric = %d, want 1", got)
	}
	if reg.Histogram("montsalvat_persist_recovery_duration_nanoseconds").Count() != 1 {
		t.Fatal("recovery duration histogram empty")
	}
}

// Get returns the value for key.
func (s *MapState) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

// Keys returns the keys in sorted order.
func (s *MapState) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
