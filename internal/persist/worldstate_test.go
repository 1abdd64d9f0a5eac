package persist

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/sgx"
	"montsalvat/internal/shim"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// newKVStore creates (and pins) a fresh enclave-resident KVStore.
func newKVStore(t *testing.T, w *world.World) wire.Value {
	t.Helper()
	var ref wire.Value
	err := w.Exec(false, func(env classmodel.Env) error {
		v, err := env.New(demo.KVStoreCls)
		if err != nil {
			return err
		}
		ref = v
		return nil
	})
	if err != nil {
		t.Fatalf("new KVStore: %v", err)
	}
	if err := w.Untrusted().Pin(ref); err != nil {
		t.Fatalf("pin store: %v", err)
	}
	return ref
}

func kvGet(t *testing.T, w *world.World, ref wire.Value, key string) string {
	t.Helper()
	var out string
	err := w.Exec(false, func(env classmodel.Env) error {
		v, err := env.Call(ref, "get", wire.Str(key))
		if err != nil {
			return err
		}
		out, _ = v.AsStr()
		return nil
	})
	if err != nil {
		t.Fatalf("get %q: %v", key, err)
	}
	return out
}

// TestWorldKVRecovery is the end-to-end tentpole path: mutations on an
// enclave-resident KVStore are journaled, the enclave dies (World.Kill)
// and is re-created (World.Restart), and a fresh Manager over the same
// untrusted storage recovers the store — checkpoint restore plus WAL
// tail replay — into a brand-new KVStore object.
func TestWorldKVRecovery(t *testing.T) {
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	fs := shim.NewMemFS()
	secret, err := sgx.NewPlatformSecret()
	if err != nil {
		t.Fatal(err)
	}
	ctrStore := sgx.NewMemCounterStore()
	openManager := func() *Manager {
		t.Helper()
		ctr, err := sgx.NewMonotonicCounter(secret, ctrStore, "worldkv")
		if err != nil {
			t.Fatal(err)
		}
		m, err := Open(Options{
			FS:      fs,
			Enclave: w.Enclave(),
			Secret:  secret,
			Counter: ctr,
			Dir:     "p/",
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	ref := newKVStore(t, w)
	kv := NewWorldKV("kv", w)
	kv.SetRef(ref)
	m := openManager()
	if err := m.Register(kv); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}

	put := func(k, v string) {
		t.Helper()
		err := w.Exec(false, func(env classmodel.Env) error {
			_, err := env.Call(ref, "put", wire.Str(k), wire.Str(v))
			return err
		})
		if err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
		if _, err := m.Append("kv", OpPut, k, []byte(v)); err != nil {
			t.Fatalf("journal %q: %v", k, err)
		}
	}
	put("alice", "balance=75")
	put("bob", "balance=50")
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	put("carol", "balance=10") // in the WAL tail only
	put("alice", "balance=20") // overwrite, replayed over the snapshot

	// The enclave dies; its heap — and the KVStore in it — is gone.
	w.Kill()
	if err := w.Restart(); err != nil {
		t.Fatal(err)
	}

	// Process-restart simulation: fresh Manager, fresh (empty) store in
	// the new enclave, recover from the untrusted files.
	ref2 := newKVStore(t, w)
	kv2 := NewWorldKV("kv", w)
	kv2.SetRef(ref2)
	m2 := openManager() // picks up the new enclave; MRSIGNER unchanged
	if err := m2.Register(kv2); err != nil {
		t.Fatal(err)
	}
	rep, err := m2.Recover()
	if err != nil {
		t.Fatalf("recover after restart: %v", err)
	}
	if rep.ReplayedRecords != 2 {
		t.Errorf("replayed %d records, want 2 (the post-checkpoint tail)", rep.ReplayedRecords)
	}
	for key, want := range map[string]string{
		"alice": "balance=20",
		"bob":   "balance=50",
		"carol": "balance=10",
	} {
		if got := kvGet(t, w, ref2, key); got != want {
			t.Errorf("recovered %q = %q, want %q", key, got, want)
		}
	}

	// The recovered lineage stays live.
	err = w.Exec(false, func(env classmodel.Env) error {
		_, err := env.Call(ref2, "put", wire.Str("dave"), wire.Str("balance=5"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Append("kv", OpPut, "dave", []byte("balance=5")); err != nil {
		t.Fatal(err)
	}
	if err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestWorldKVRequiresRef pins the misuse error: the adapter refuses to
// run against a dead/unset store ref instead of crashing into the
// world.
func TestWorldKVRequiresRef(t *testing.T) {
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	kv := NewWorldKV("kv", w)
	if _, err := kv.Snapshot(); !errors.Is(err, ErrNoStoreRef) {
		t.Fatalf("Snapshot without ref: %v, want ErrNoStoreRef", err)
	}
	if err := kv.Apply([]Record{{Op: OpPut, Key: "k"}}); !errors.Is(err, ErrNoStoreRef) {
		t.Fatalf("Apply without ref: %v, want ErrNoStoreRef", err)
	}
	kv.SetRef(newKVStore(t, w))
	if err := kv.Apply([]Record{{Op: OpDelete, Key: "k"}}); !errors.Is(err, ErrRecordMalformed) {
		t.Fatalf("delete on world kv: %v, want ErrRecordMalformed", err)
	}
}

// recoveryFixture is a partitioned KV world with a durable root that
// survives World.Kill/Restart: the setting of the crossing test.
type recoveryFixture struct {
	t      *testing.T
	w      *world.World
	fs     *shim.MemFS
	secret sgx.PlatformSecret
	ctrs   *sgx.MemCounterStore
}

func newRecoveryFixture(t *testing.T) *recoveryFixture {
	t.Helper()
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	secret, err := sgx.NewPlatformSecret()
	if err != nil {
		t.Fatal(err)
	}
	return &recoveryFixture{t: t, w: w, fs: shim.NewMemFS(), secret: secret, ctrs: sgx.NewMemCounterStore()}
}

// boot creates a fresh store in the current enclave and opens a
// manager over it with small segments, without recovering yet.
func (f *recoveryFixture) boot() (*Manager, wire.Value) {
	f.t.Helper()
	ref := newKVStore(f.t, f.w)
	kv := NewWorldKV("kv", f.w)
	kv.SetRef(ref)
	ctr, err := sgx.NewMonotonicCounter(f.secret, f.ctrs, "crossings")
	if err != nil {
		f.t.Fatal(err)
	}
	m, err := Open(Options{
		FS: f.fs, Enclave: f.w.Enclave(), Secret: f.secret, Counter: ctr,
		Dir: "p/", SegmentBytes: 512,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	if err := m.Register(kv); err != nil {
		f.t.Fatal(err)
	}
	return m, ref
}

// put writes through the store and journals the write, as the gateway
// does.
func (f *recoveryFixture) put(m *Manager, ref wire.Value, k, v string) {
	f.t.Helper()
	err := f.w.Exec(false, func(env classmodel.Env) error {
		_, err := env.Call(ref, "put", wire.Str(k), wire.Str(v))
		return err
	})
	if err != nil {
		f.t.Fatalf("put %q: %v", k, err)
	}
	if _, err := m.Append("kv", OpPut, k, []byte(v)); err != nil {
		f.t.Fatalf("journal %q: %v", k, err)
	}
}

// tailSegments counts the live WAL segments holding at least one
// record: the segments replay will apply.
func tailSegments(t *testing.T, m *Manager) int {
	t.Helper()
	seqs, err := m.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i, seq := range seqs {
		_, recs, _, err := m.readSegment(seq, i == len(seqs)-1)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) > 0 {
			n++
		}
	}
	return n
}

// The recovery tests' stream: C checkpointed puts, then R tail puts,
// which fill S = 4 WAL segments of 512 bytes.
const recoveryC, recoveryR = 40, 24

// crash lays the recovery tests' op stream on a fresh fixture: boot
// and recover an empty root, C puts, a checkpoint, R puts over several
// WAL segments (every other one overwriting a checkpointed key), then
// Kill and Restart. It returns a manager and an empty store booted in
// the new enclave, not yet recovered, the contents recovery must
// rebuild, and the number of tail segments.
func (f *recoveryFixture) crash() (*Manager, wire.Value, map[string]string, int) {
	f.t.Helper()
	m, ref := f.boot()
	if _, err := m.Recover(); err != nil {
		f.t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < recoveryC; i++ {
		k, v := fmt.Sprintf("key-%03d", i), fmt.Sprintf("v0-%03d", i)
		f.put(m, ref, k, v)
		want[k] = v
	}
	if err := m.Checkpoint(); err != nil {
		f.t.Fatal(err)
	}
	for i := 0; i < recoveryR; i++ {
		k, v := fmt.Sprintf("key-%03d", i*3), fmt.Sprintf("v1-%03d", i)
		if i%2 == 1 {
			k = fmt.Sprintf("new-%03d", i)
		}
		f.put(m, ref, k, v)
		want[k] = v
	}
	segs := tailSegments(f.t, m)
	if segs < 2 || segs >= recoveryR {
		f.t.Fatalf("fixture laid the %d tail records over %d segments; want several records in each of several segments", recoveryR, segs)
	}
	f.w.Kill()
	if err := f.w.Restart(); err != nil {
		f.t.Fatal(err)
	}
	m2, ref2 := f.boot()
	return m2, ref2, want, segs
}

// recoveryLedger is what the simulated platform charged and counted
// over one Recover: the fields of the world package's cycle-ledger
// golden that a recovery moves.
type recoveryLedger struct {
	Cycles           int64
	Ecalls           uint64
	SwitchlessEcalls uint64
	Ocalls           uint64
	SwitchlessOcalls uint64
	PageFaults       uint64
	MEECopiedBytes   uint64
}

func (f *recoveryFixture) ledger() recoveryLedger {
	es := f.w.Enclave().Stats()
	return recoveryLedger{
		Cycles:           f.w.Clock().Total(),
		Ecalls:           es.Ecalls,
		SwitchlessEcalls: es.SwitchlessEcalls,
		Ocalls:           es.Ocalls,
		SwitchlessOcalls: es.SwitchlessOcalls,
		PageFaults:       es.Residency.PageFaults,
		MEECopiedBytes:   f.w.DispatchStats().MEECopiedBytes,
	}
}

// recover runs m.Recover, checks that it replayed the R tail records,
// rebuilt want into ref and gave back every TCS slot it took, and
// returns what it charged.
func (f *recoveryFixture) recover(m *Manager, ref wire.Value, want map[string]string) recoveryLedger {
	f.t.Helper()
	inUse := f.w.Enclave().TCSInUse()
	before := f.ledger()
	rep, err := m.Recover()
	if err != nil {
		f.t.Fatal(err)
	}
	after := f.ledger()
	if got := f.w.Enclave().TCSInUse(); got != inUse {
		f.t.Errorf("recovery left %d TCS slots in use, want %d: a pass kept its lane", got, inUse)
	}
	if rep.ReplayedRecords != recoveryR {
		f.t.Fatalf("replayed %d records, want %d", rep.ReplayedRecords, recoveryR)
	}
	for k, v := range want {
		if got := kvGet(f.t, f.w, ref, k); got != v {
			f.t.Errorf("recovered %q = %q, want %q", k, got, v)
		}
	}
	return recoveryLedger{
		Cycles:           after.Cycles - before.Cycles,
		Ecalls:           after.Ecalls - before.Ecalls,
		SwitchlessEcalls: after.SwitchlessEcalls - before.SwitchlessEcalls,
		Ocalls:           after.Ocalls - before.Ocalls,
		SwitchlessOcalls: after.SwitchlessOcalls - before.SwitchlessOcalls,
		PageFaults:       after.PageFaults - before.PageFaults,
		MEECopiedBytes:   after.MEECopiedBytes - before.MEECopiedBytes,
	}
}

// TestRecoveryCrossings pins what recovering an enclave-resident store
// costs in transitions: restore, replay and the recovery checkpoint are
// each one trusted pass — the restore, one per WAL segment for the
// replay, the checkpoint snapshot — however many keys they carry. The
// restore and replay passes drive put, so each runs on a lane of its
// own: one entry when the lane opens and one hand-off in, and the
// audit ocall every KVStore.put makes, one per restored key and per
// replayed record, is handed out to the recovering goroutine. The
// snapshot makes no ocall and takes one full ecall. This test pins
// the lane mechanism itself: with it gone, the C + R audit ocalls
// cross in full again.
func TestRecoveryCrossings(t *testing.T) {
	f := newRecoveryFixture(t)
	m, ref, want, segs := f.crash()
	got := f.recover(m, ref, want)
	passes := uint64(1 + segs)
	if wantEcalls := passes + 1; got.Ecalls != wantEcalls {
		t.Errorf("recovery made %d ecalls, want %d (restore + %d segments + checkpoint)", got.Ecalls, wantEcalls, segs)
	}
	if got.SwitchlessEcalls != passes {
		t.Errorf("recovery made %d lane hand-offs in, want %d (restore + %d segments)", got.SwitchlessEcalls, passes, segs)
	}
	if got.Ocalls != 0 {
		t.Errorf("recovery made %d full ocalls, want 0", got.Ocalls)
	}
	if want := uint64(recoveryC + recoveryR); got.SwitchlessOcalls != want {
		t.Errorf("recovery handed %d ocalls out, want %d (one audit ocall per restored key and replayed record)", got.SwitchlessOcalls, want)
	}
}

// recoveryFullLedger is the recovery stream's ledger with every pass
// crossing in full: 1 + S + 1 ecalls and C + R audit ocalls.
var recoveryFullLedger = recoveryLedger{Cycles: 863808, Ecalls: 6, Ocalls: 64, PageFaults: 2, MEECopiedBytes: 961}

// TestRecoveryLedgerGolden pins the whole recovery ledger. Beside
// recoveryFullLedger it is the lanes' before/after table: the C + R
// audit ocalls are each 7,400 cycles cheaper handed out, each of the
// 1 + S put passes pays a 1,200-cycle hand-off on top of its lane's
// entry, and nothing else moves.
func TestRecoveryLedgerGolden(t *testing.T) {
	f := newRecoveryFixture(t)
	m, ref, want, _ := f.crash()
	got := f.recover(m, ref, want)
	// 863,808 − 64 × 7,400 + 5 × 1,200.
	wantLedger := recoveryLedger{Cycles: 396208, Ecalls: 6, SwitchlessEcalls: 5, SwitchlessOcalls: 64, PageFaults: 2, MEECopiedBytes: 961}
	if got != wantLedger {
		t.Errorf("recovery ledger moved:\n got  %#v\n want %#v", got, wantLedger)
	}
}

// TestRecoveryWithoutLane recovers in a world whose open lanes already
// hold every TCS slot the budget grants, as a gateway's workers do:
// the passes get no lane and cross in full, exactly as before lanes.
func TestRecoveryWithoutLane(t *testing.T) {
	f := newRecoveryFixture(t)
	m, ref, want, _ := f.crash()
	lanes, err := f.w.OpenLanes(f.w.Enclave().TCSCap())
	if err != nil {
		t.Fatal(err)
	}
	if len(lanes) == 0 {
		t.Fatal("the TCS budget granted no lane to take")
	}
	if got := f.recover(m, ref, want); got != recoveryFullLedger {
		t.Errorf("laneless recovery ledger moved:\n got  %#v\n want %#v", got, recoveryFullLedger)
	}
}

// TestRecoveryEmptyRestore pins that restoring a checkpoint with no
// pairs — a fresh replica's boot checkpoint — makes no pass: no flush,
// no crossing, no cycle.
func TestRecoveryEmptyRestore(t *testing.T) {
	f := newRecoveryFixture(t)
	kv := NewWorldKV("kv", f.w)
	kv.SetRef(newKVStore(t, f.w))
	before := f.ledger()
	if err := kv.Restore(encodePairs(nil)); err != nil {
		t.Fatal(err)
	}
	if after := f.ledger(); after != before {
		t.Errorf("empty restore charged:\n before %#v\n after  %#v", before, after)
	}
}

// newMainStore creates and pins a KVStore from the runtime that runs
// main in w's mode — the untrusted one unless the whole program is in
// the enclave. A local object lives only as long as the frame that
// made it, so it is pinned before the frame ends.
func newMainStore(t *testing.T, w *world.World) wire.Value {
	t.Helper()
	rt := w.Untrusted()
	if w.Mode() == world.ModeUnpartitionedSGX {
		rt = w.Trusted()
	}
	var ref wire.Value
	err := w.ExecMain(func(env classmodel.Env) error {
		var err error
		if ref, err = env.New(demo.KVStoreCls); err != nil {
			return err
		}
		return rt.Pin(ref)
	})
	if err != nil {
		t.Fatalf("new KVStore: %v", err)
	}
	return ref
}

// TestWorldKVSnapshotMatchesMapState checks the claim that a WorldKV
// checkpoint restores into either adapter: for the same puts, in every
// deployment mode, WorldKV and MapState snapshot byte-identically, and
// each one's snapshot restored into the other snapshots the same bytes
// again.
func TestWorldKVSnapshotMatchesMapState(t *testing.T) {
	modes := []struct {
		name string
		boot func() (*world.World, error)
	}{
		{"partitioned", func() (*world.World, error) {
			w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), world.DefaultOptions())
			return w, err
		}},
		{"unpartitioned-sgx", func() (*world.World, error) {
			w, _, err := core.NewUnpartitionedWorld(demo.MustKVProgram(), world.DefaultOptions(), true)
			return w, err
		}},
		{"no-sgx", func() (*world.World, error) {
			w, _, err := core.NewUnpartitionedWorld(demo.MustKVProgram(), world.DefaultOptions(), false)
			return w, err
		}},
	}
	puts := [][2]string{{"bob", "50"}, {"alice", "75"}, {"", "empty key"}, {"carol", ""}, {"alice", "20"}, {"zed", "9"}}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			w, err := mode.boot()
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			kv := NewWorldKV("kv", w)
			ref := newMainStore(t, w)
			kv.SetRef(ref)
			ms := NewMapState("kv")
			for _, p := range puts {
				err := w.ExecMain(func(env classmodel.Env) error {
					_, err := env.Call(ref, "put", wire.Str(p[0]), wire.Str(p[1]))
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				ms.Put(p[0], []byte(p[1]))
			}
			worldSnap, err := kv.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			mapSnap, err := ms.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(worldSnap, mapSnap) {
				t.Fatalf("WorldKV snapshot %x\nMapState snapshot %x", worldSnap, mapSnap)
			}

			intoMap := NewMapState("kv")
			if err := intoMap.Restore(worldSnap); err != nil {
				t.Fatal(err)
			}
			intoWorld := NewWorldKV("kv", w)
			intoWorld.SetRef(newMainStore(t, w))
			if err := intoWorld.Restore(mapSnap); err != nil {
				t.Fatal(err)
			}
			for name, s := range map[string]State{"MapState": intoMap, "WorldKV": intoWorld} {
				again, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, mapSnap) {
					t.Errorf("%s restored from the other adapter snapshots %x, want %x", name, again, mapSnap)
				}
			}
		})
	}
}

// TestWorldKVFlushesBeforePass pins the flush-before-trusted-pass rule:
// with batching on, a store's constructor relay is void, so it waits in
// the batch queue and the enclave holds no mirror yet. A pass that
// entered without flushing would find no object behind the ref.
func TestWorldKVFlushesBeforePass(t *testing.T) {
	opts := world.DefaultOptions()
	opts.Cfg.Batching = true
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	kv := NewWorldKV("kv", w)
	kv.SetRef(newKVStore(t, w))
	if err := kv.Restore(encodePairs([]kvPair{{"k", []byte("v")}})); err != nil {
		t.Fatalf("restore into a store whose constructor is still queued: %v", err)
	}
	snap, err := kv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := encodePairs([]kvPair{{"k", []byte("v")}}); !bytes.Equal(snap, want) {
		t.Fatalf("snapshot %x, want %x", snap, want)
	}
}

// TestWorldKVCheckpointSealsQueuedPuts pins the checkpoint barrier:
// with batching on, a put waits in the batch queue, and a checkpoint
// must seal it. The WorldKV's pass flushes the queue before the
// snapshot reads the store, so the checkpoint files, reopened into a
// MapState, hold the put although the WAL never saw it.
func TestWorldKVCheckpointSealsQueuedPuts(t *testing.T) {
	opts := world.DefaultOptions()
	opts.Cfg.Batching = true
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ref := newKVStore(t, w)
	if err := w.Flush(); err != nil { // the store's constructor lands
		t.Fatal(err)
	}
	fs := shim.NewMemFS()
	secret, err := sgx.NewPlatformSecret()
	if err != nil {
		t.Fatal(err)
	}
	ctrs := sgx.NewMemCounterStore()
	recoverInto := func(s State) *Manager {
		t.Helper()
		ctr, err := sgx.NewMonotonicCounter(secret, ctrs, "queued")
		if err != nil {
			t.Fatal(err)
		}
		m, err := Open(Options{FS: fs, Enclave: w.Enclave(), Secret: secret, Counter: ctr, Dir: "p/"})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Register(s); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Recover(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	kv := NewWorldKV("kv", w)
	kv.SetRef(ref)
	m := recoverInto(kv)
	err = w.Exec(false, func(env classmodel.Env) error {
		_, err := env.Call(ref, "put", wire.Str("k"), wire.Str("v"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.DispatchStats().PendingCalls == 0 {
		t.Fatal("the put did not wait in the batch queue")
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sealed := NewMapState("kv")
	recoverInto(sealed)
	if v, ok := sealed.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("checkpoint holds k = %q (present %v), want \"v\"", v, ok)
	}
}
