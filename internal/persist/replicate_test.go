package persist

import (
	"bytes"
	"errors"
	"testing"

	"montsalvat/internal/sgx"
	"montsalvat/internal/shim"
)

// replicaEnv builds a primary manager whose counter store lives on the
// same shim.FS as the log (FSCounterStore under Dir), so ReplicaDelta
// covers the complete durable root including rollback-protection state.
type replicaEnv struct {
	t       *testing.T
	fs      *shim.MemFS
	secret  sgx.PlatformSecret
	mgr     *Manager
	state   *MapState
	dir     string
	enclave *sgx.Enclave
}

func newReplicaEnv(t *testing.T, dir string) *replicaEnv {
	t.Helper()
	secret, err := sgx.NewPlatformSecret()
	if err != nil {
		t.Fatal(err)
	}
	fs := shim.NewMemFS()
	enclave := testEnclave(t, "replica test image")
	ctr, err := sgx.NewMonotonicCounter(secret, NewFSCounterStore(fs, dir), "shard")
	if err != nil {
		t.Fatal(err)
	}
	state := NewMapState("kv")
	m, err := Open(Options{
		FS:      fs,
		Enclave: enclave,
		Secret:  secret,
		Counter: ctr,
		Dir:     dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(state); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	return &replicaEnv{t: t, fs: fs, secret: secret, mgr: m, state: state, dir: dir, enclave: enclave}
}

// ship computes a delta against the follower's have map, round-trips it
// through the wire encoding, applies it, and folds it into have.
func (e *replicaEnv) ship(follower *shim.MemFS, have map[string]int64) Delta {
	e.t.Helper()
	d, err := e.mgr.ReplicaDelta(have)
	if err != nil {
		e.t.Fatalf("ReplicaDelta: %v", err)
	}
	decoded, err := DecodeDelta(AppendDelta(nil, d))
	if err != nil {
		e.t.Fatalf("decode(encode(delta)): %v", err)
	}
	if err := ApplyDelta(follower, decoded); err != nil {
		e.t.Fatalf("ApplyDelta: %v", err)
	}
	UpdateHave(have, decoded)
	return decoded
}

// assertIdentical compares every file under dir byte for byte.
func (e *replicaEnv) assertIdentical(follower *shim.MemFS) {
	e.t.Helper()
	read := func(fs *shim.MemFS) map[string][]byte {
		names, err := fs.List()
		if err != nil {
			e.t.Fatal(err)
		}
		out := make(map[string][]byte)
		for _, name := range names {
			size, err := fs.Size(name)
			if err != nil {
				e.t.Fatal(err)
			}
			buf, err := fs.ReadAt(name, 0, int(size))
			if err != nil {
				e.t.Fatal(err)
			}
			out[name] = buf
		}
		return out
	}
	p, f := read(e.fs), read(follower)
	if len(p) != len(f) {
		e.t.Fatalf("file count: primary %d, follower %d\nprimary: %v\nfollower: %v", len(p), len(f), keys(p), keys(f))
	}
	for name, data := range p {
		if !bytes.Equal(data, f[name]) {
			e.t.Fatalf("file %s differs: primary %d bytes, follower %d bytes", name, len(data), len(f[name]))
		}
	}
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestReplicaDeltaConverges ships a primary's durable root to an empty
// follower, drives more traffic (including a checkpoint, which rotates
// and truncates segments), re-ships, and requires bit-identical
// directories after every round — the invariant promotion relies on.
func TestReplicaDeltaConverges(t *testing.T) {
	e := newReplicaEnv(t, "p/")
	follower := shim.NewMemFS()
	have := map[string]int64{}

	for i := 0; i < 8; i++ {
		if _, err := e.mgr.Append("kv", OpPut, string(rune('a'+i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	d := e.ship(follower, have)
	if d.Empty() {
		t.Fatal("first shipment empty")
	}
	if d.LastLSN != 8 {
		t.Fatalf("delta LastLSN = %d, want 8", d.LastLSN)
	}
	e.assertIdentical(follower)

	// Nothing changed: the next delta is empty (no redundant traffic
	// beyond the whole-file counter class).
	d = e.ship(follower, have)
	for _, c := range d.Chunks {
		if e.mgr.appendOnly(c.Name) || e.mgr.immutable(c.Name) {
			t.Fatalf("idle delta re-shipped %s", c.Name)
		}
	}
	e.assertIdentical(follower)

	// A checkpoint supersedes the old lineage: segments truncate, a new
	// checkpoint appears, the counter bumps. The follower must converge
	// through removals.
	if err := e.mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.mgr.Append("kv", OpPut, "post", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	d = e.ship(follower, have)
	if len(d.Remove) == 0 {
		t.Fatal("post-checkpoint delta removed nothing (expected truncated lineage)")
	}
	e.assertIdentical(follower)
}

// TestReplicaPromote recovers a second manager over the shipped
// follower filesystem — with a different enclave instance sharing the
// signer, as a promoted replica would — and requires every appended
// record to be visible.
func TestReplicaPromote(t *testing.T) {
	e := newReplicaEnv(t, "p/")
	follower := shim.NewMemFS()
	have := map[string]int64{}
	for i := 0; i < 10; i++ {
		if _, err := e.mgr.Append("kv", OpPut, "k"+string(rune('0'+i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	e.ship(follower, have)

	ctr, err := sgx.NewMonotonicCounter(e.secret, NewFSCounterStore(follower, "p/"), "shard")
	if err != nil {
		t.Fatal(err)
	}
	state := NewMapState("kv")
	rm, err := Open(Options{
		FS:      follower,
		Enclave: testEnclave(t, "replica test image"),
		Secret:  e.secret,
		Counter: ctr,
		Dir:     "p/",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Register(state); err != nil {
		t.Fatal(err)
	}
	rep, err := rm.Recover()
	if err != nil {
		t.Fatalf("promote recover: %v", err)
	}
	if rep.LastLSN != 10 {
		t.Fatalf("promoted LastLSN = %d, want 10", rep.LastLSN)
	}
	for i := 0; i < 10; i++ {
		if v, ok := state.Get("k" + string(rune('0'+i))); !ok || string(v) != "v" {
			t.Fatalf("promoted state missing k%d (ok=%v v=%q)", i, ok, v)
		}
	}
}

// TestReplicaDeltaRequiresRecovery: no consistent cut exists before
// Recover establishes the log position.
func TestReplicaDeltaRequiresRecovery(t *testing.T) {
	env := newEnv(t)
	m := env.open(Options{Dir: "p/"}, NewMapState("kv"))
	if _, err := m.ReplicaDelta(nil); !errors.Is(err, ErrNoDelta) {
		t.Fatalf("ReplicaDelta before Recover: %v, want ErrNoDelta", err)
	}
}

// TestDecodeDeltaRejectsJunk: structural decoding failures are typed,
// and a truncated blob never panics.
func TestDecodeDeltaRejectsJunk(t *testing.T) {
	good := AppendDelta(nil, Delta{
		Stamp: 3, LastLSN: 17,
		Remove: []string{"p/wal-00000001.seg"},
		Chunks: []Chunk{{Name: "p/wal-00000002.seg", Off: 8, Data: []byte("abc")}},
	})
	rt, err := DecodeDelta(good)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if rt.Stamp != 3 || rt.LastLSN != 17 || len(rt.Remove) != 1 || len(rt.Chunks) != 1 {
		t.Fatalf("round trip = %+v", rt)
	}
	if rt.Chunks[0].Off != 8 || string(rt.Chunks[0].Data) != "abc" {
		t.Fatalf("chunk = %+v", rt.Chunks[0])
	}
	for i := 0; i < len(good); i++ {
		if _, err := DecodeDelta(good[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		} else if !errors.Is(err, ErrCorruptDelta) {
			t.Fatalf("truncation at %d: %v, want ErrCorruptDelta", i, err)
		}
	}
	if _, err := DecodeDelta(append([]byte(nil), append(good, 0xff)...)); !errors.Is(err, ErrCorruptDelta) {
		t.Fatalf("trailing byte accepted")
	}
}

// failingRemoveFS is a MemFS whose Remove fails with err for every file
// that exists.
type failingRemoveFS struct {
	*shim.MemFS
	err error
}

func (fs failingRemoveFS) Remove(name string) error {
	if _, err := fs.Size(name); err != nil {
		return fs.MemFS.Remove(name)
	}
	return fs.err
}

// TestApplyDeltaRemoveErrors pins ApplyDelta's removal step: a file
// already gone counts as removed, and any other failed removal fails
// the apply before a chunk lands, so a segment the primary re-ships
// from offset 0 cannot keep a stale tail while the round acks.
func TestApplyDeltaRemoveErrors(t *testing.T) {
	ioErr := errors.New("i/o error")
	fs := failingRemoveFS{MemFS: shim.NewMemFS(), err: ioErr}
	if err := ApplyDelta(fs, Delta{Remove: []string{"p/gone.seg"}}); err != nil {
		t.Fatalf("removing a missing file: %v", err)
	}
	if err := fs.WriteAt("p/wal.seg", 0, []byte("stale tail")); err != nil {
		t.Fatal(err)
	}
	err := ApplyDelta(fs, Delta{
		Remove: []string{"p/wal.seg"},
		Chunks: []Chunk{{Name: "p/wal.seg", Off: 0, Data: []byte("new")}},
	})
	if !errors.Is(err, ioErr) {
		t.Fatalf("ApplyDelta with a failing remove: %v, want %v", err, ioErr)
	}
	if data, _ := fs.ReadAt("p/wal.seg", 0, 10); string(data) != "stale tail" {
		t.Fatalf("a chunk landed after the failed remove: %q", data)
	}
}
