package persist

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestCrashMatrix kills the manager at every instrumented crash point
// and proves recovery converges to a prefix-consistent state: every
// acked mutation survives, and at most the in-flight group that was
// durable-but-unacked may additionally appear — all of it or none.
//
// Workload per point: a run of acked puts (small segments force
// rotation), a mid-run checkpoint so there is real checkpoint lineage,
// then the crash — on a final commit (append points) or on an explicit
// checkpoint (checkpoint points). Append points run twice: "solo"
// crashes a lone Append committing its own record, "group" crashes a
// leader committing a frame of three parked followers. After the crash
// the world is rebuilt from scratch (new enclave, same signer) and
// recovered.
func TestCrashMatrix(t *testing.T) {
	for _, point := range CrashPoints() {
		t.Run(point.String(), func(t *testing.T) {
			if point > CrashAfterAppend {
				crashMatrixCell(t, point, false)
				return
			}
			t.Run("solo", func(t *testing.T) { crashMatrixCell(t, point, false) })
			t.Run("group", func(t *testing.T) { crashMatrixCell(t, point, true) })
		})
	}
}

func crashMatrixCell(t *testing.T, point CrashPoint, group bool) {
	appendPoint := point <= CrashAfterAppend
	e := newEnv(t)
	opts := Options{Dir: "p/", SegmentBytes: 300}

	kv := NewMapState("kv")
	m := e.open(opts, kv)
	inj := m.CrashInjector()
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}

	acked := map[string]string{}
	put := func(k, v string) {
		t.Helper()
		kv.Put(k, []byte(v))
		mustAppend(t, m, "kv", k, v)
		acked[k] = v
	}
	for i := 0; i < 8; i++ {
		put(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i))
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 14; i++ {
		put(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i))
	}

	// The crash. pending holds the in-flight mutations; mayRecover
	// marks them as legitimately recoverable (durable before the
	// crash fired).
	pending := map[string]string{}
	mayRecover := point == CrashAfterAppend
	switch {
	case group:
		// Crash inside a multi-member frame: park a leader on m.mu with
		// its own frame already sliced off the queue, so followers
		// provably pile into one group behind it; arm the point for that
		// group's commit (hit #2 — the leader's own frame is hit #1),
		// then let it run.
		waitFor := func(cond func() bool, what string) {
			t.Helper()
			deadline := time.Now().Add(5 * time.Second)
			for !cond() {
				if time.Now().After(deadline) {
					t.Fatalf("timeout waiting for %s", what)
				}
				time.Sleep(time.Millisecond)
			}
		}
		m.mu.Lock()
		kv.Put("lead", []byte("lv"))
		m.GroupEnqueue("kv", OpPut, "lead", []byte("lv"))
		type flushResult struct {
			n   int
			err error
		}
		leader := make(chan flushResult, 1)
		go func() {
			n, err := m.GroupFlush()
			leader <- flushResult{n, err}
		}()
		waitFor(func() bool { return m.GroupPending() == 0 }, "leader to take its own frame")
		groupKeys := []string{"ga", "gb", "gc"}
		var wg sync.WaitGroup
		errs := make([]error, len(groupKeys))
		for i, k := range groupKeys {
			kv.Put(k, []byte("gv"))
			wg.Add(1)
			go func(i int, k string) {
				defer wg.Done()
				_, errs[i] = m.Append("kv", OpPut, k, []byte("gv"))
			}(i, k)
		}
		waitFor(func() bool { return m.GroupPending() == len(groupKeys) }, "followers to queue")
		inj.ArmAfter(point, 2)
		m.mu.Unlock()
		if res := <-leader; res.n != 1 || !IsCrash(res.err) {
			t.Fatalf("leader term = (%d, %v), want its own record committed then the armed %s", res.n, res.err, point)
		}
		acked["lead"] = "lv"
		wg.Wait()
		for i, err := range errs {
			if !IsCrash(err) {
				t.Fatalf("group append %q survived armed %s: %v", groupKeys[i], point, err)
			}
		}
		for _, k := range groupKeys {
			pending[k] = "gv"
		}
	case appendPoint:
		inj.Arm(point)
		pending["pending"] = "pv"
		kv.Put("pending", []byte("pv"))
		_, err := m.Append("kv", OpPut, "pending", []byte("pv"))
		if !IsCrash(err) {
			t.Fatalf("append survived armed %s: %v", point, err)
		}
	default:
		inj.Arm(point)
		err := m.Checkpoint()
		if !IsCrash(err) {
			t.Fatalf("checkpoint survived armed %s: %v", point, err)
		}
	}
	// Restart: fresh enclave, fresh states, recover from storage.
	inj.Disarm()
	kv2 := NewMapState("kv")
	m2 := e.open(opts, kv2)
	rep, err := m2.Recover()
	if err != nil {
		t.Fatalf("recovery after %s: %v", point, err)
	}
	if point == CrashMidAppend && !rep.TornTail {
		t.Errorf("%s crash did not surface a torn tail", point)
	}

	// Prefix consistency: all acked mutations present...
	assertPrefix := func(s *MapState) {
		t.Helper()
		for k, v := range acked {
			got, ok := s.Get(k)
			if !ok || string(got) != v {
				t.Fatalf("acked %q lost after %s: got %q, %v", k, point, got, ok)
			}
		}
		// ...and nothing beyond acked plus (maybe) the pending ops.
		for _, k := range s.Keys() {
			if _, ok := acked[k]; ok {
				continue
			}
			if want, ok := pending[k]; ok && mayRecover {
				if got, _ := s.Get(k); string(got) != want {
					t.Fatalf("pending %q recovered with wrong value %q", k, got)
				}
				continue
			}
			t.Fatalf("phantom key %q recovered after %s", k, point)
		}
	}
	assertPrefix(kv2)
	if appendPoint {
		// A frame is all-or-nothing: either the whole group was durable
		// before the crash (after-append) or none of it survives —
		// never a partial group.
		recovered := 0
		for k := range pending {
			if _, ok := kv2.Get(k); ok {
				recovered++
			}
		}
		want := 0
		if mayRecover {
			want = len(pending)
		}
		if recovered != want {
			t.Fatalf("group recovered %d/%d members after %s, want %d",
				recovered, len(pending), point, want)
		}
	}

	// The recovered log is live: write, checkpoint, restart again.
	kv2.Put("post", []byte("crash"))
	mustAppend(t, m2, "kv", "post", "crash")
	acked["post"] = "crash"
	if mayRecover {
		for k, v := range pending {
			acked[k] = v // now part of durable state
		}
		mayRecover = false
		pending = map[string]string{}
	}
	if err := m2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovery from %s: %v", point, err)
	}
	kv3 := NewMapState("kv")
	m3 := e.open(opts, kv3)
	if _, err := m3.Recover(); err != nil {
		t.Fatalf("second recovery after %s: %v", point, err)
	}
	assertPrefix(kv3)
}

// TestCrashDuringAutoCheckpoint crashes inside a checkpoint triggered
// from Append's auto-checkpoint path: the append itself is durable, so
// it may (and does) surface after recovery even though the caller saw
// an error.
func TestCrashDuringAutoCheckpoint(t *testing.T) {
	e := newEnv(t)
	opts := Options{CheckpointEvery: 3}
	kv := NewMapState("kv")
	m := e.open(opts, kv)
	inj := m.CrashInjector()
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	acked := map[string]string{}
	for i := 0; i < 2; i++ {
		k := fmt.Sprintf("k%d", i)
		kv.Put(k, []byte("v"))
		mustAppend(t, m, "kv", k, "v")
		acked[k] = "v"
	}
	inj.Arm(CrashAfterCheckpointWrite)
	kv.Put("k2", []byte("v"))
	if _, err := m.Append("kv", OpPut, "k2", []byte("v")); !IsCrash(err) {
		t.Fatalf("append #3 should have crashed in auto-checkpoint: %v", err)
	}
	inj.Disarm()

	kv2 := NewMapState("kv")
	m2 := e.open(opts, kv2)
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	acked["k2"] = "v" // durable before the checkpoint began
	assertKV(t, kv2, acked)
}

// TestRollbackRejected restores an older full-storage snapshot — the
// classic host rollback — and proves recovery refuses it with the
// typed error instead of silently serving stale state.
func TestRollbackRejected(t *testing.T) {
	e := newEnv(t)
	kv := NewMapState("kv")
	m := e.open(Options{Dir: "p/"}, kv)
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	kv.Put("balance", []byte("100"))
	mustAppend(t, m, "kv", "balance", "100")
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	old := e.snapshotFiles() // attacker's copy: balance=100 sealed state

	kv.Put("balance", []byte("0"))
	mustAppend(t, m, "kv", "balance", "0")
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Host swaps the storage back to the old snapshot. The monotonic
	// counter (in its own store) has moved on: recovery must refuse.
	e.restoreFiles(old)
	m2 := e.open(Options{Dir: "p/"}, NewMapState("kv"))
	if _, err := m2.Recover(); !errors.Is(err, ErrRollback) {
		t.Fatalf("rollback recovery: %v, want ErrRollback", err)
	}
}

// TestForkCheckpointRejected renames/copies a stale checkpoint blob
// into the current stamp's file name: the sealed AAD binds the stamp,
// so the forgery fails closed.
func TestForkCheckpointRejected(t *testing.T) {
	e := newEnv(t)
	kv := NewMapState("kv")
	m := e.open(Options{Dir: "p/"}, kv)
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	kv.Put("k", []byte("old"))
	mustAppend(t, m, "kv", "k", "old")
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	oldFiles := e.snapshotFiles()
	oldStamp := m.epoch

	kv.Put("k", []byte("new"))
	mustAppend(t, m, "kv", "k", "new")
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	newStamp := m.epoch

	// Graft the old blob under the new stamp's file name.
	oldBlob := oldFiles[m.checkpointName(oldStamp)]
	if oldBlob == nil {
		t.Fatalf("no old checkpoint in snapshot (stamp %d)", oldStamp)
	}
	if err := e.fs.Remove(m.checkpointName(newStamp)); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.WriteAt(m.checkpointName(newStamp), 0, oldBlob); err != nil {
		t.Fatal(err)
	}
	m2 := e.open(Options{Dir: "p/"}, NewMapState("kv"))
	if _, err := m2.Recover(); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("grafted checkpoint: %v, want ErrCorruptCheckpoint", err)
	}
}

// TestCrashErrorShape pins the typed-error contract.
func TestCrashErrorShape(t *testing.T) {
	err := fmt.Errorf("wrapped: %w", &Crash{Point: CrashMidAppend})
	if !IsCrash(err) {
		t.Fatal("IsCrash failed through wrapping")
	}
	var c *Crash
	if !errors.As(err, &c) || c.Point != CrashMidAppend {
		t.Fatalf("crash point lost: %v", c)
	}
	if IsCrash(errors.New("plain")) {
		t.Fatal("IsCrash on plain error")
	}
}
