package world_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/heap"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// ledger is everything the simulated platform charged or counted for one
// op stream: the currency of the paper's figures. A host-only change to
// the trusted-memory data path must leave every field untouched, except
// that LinesEncrypted may drop where heap.AllocData stores in one pass
// what Alloc + WriteData encrypted twice.
type ledger struct {
	Cycles           int64
	Ecalls           uint64
	SwitchlessEcalls uint64
	Ocalls           uint64
	SwitchlessOcalls uint64
	PageFaults       uint64
	Evictions        uint64
	Collections      uint64
	ObjectsCopied    uint64
	BytesCopied      uint64
	MEECopiedBytes   uint64
	LinesEncrypted   uint64
}

func ledgerOf(w *world.World) ledger {
	es := w.Enclave().Stats()
	hs := w.Trusted().HeapStats()
	return ledger{
		Cycles:           w.Clock().Total(),
		Ecalls:           es.Ecalls,
		SwitchlessEcalls: es.SwitchlessEcalls,
		Ocalls:           es.Ocalls,
		SwitchlessOcalls: es.SwitchlessOcalls,
		PageFaults:       es.Residency.PageFaults,
		Evictions:        es.Residency.Evictions,
		Collections:      hs.Collections,
		ObjectsCopied:    hs.ObjectsCopied,
		BytesCopied:      hs.BytesCopied,
		MEECopiedBytes:   w.DispatchStats().MEECopiedBytes,
		LinesEncrypted:   es.MEE.LinesEncrypted,
	}
}

// goldenWorld is a partitioned KV world whose EPC holds epcPages pages.
func goldenWorld(t *testing.T, epcPages int, trusted heap.Config) *world.World {
	t.Helper()
	opts := world.DefaultOptions()
	opts.Cfg.EPCBytes = epcPages * 4096
	opts.TrustedHeap = trusted
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), opts)
	if err != nil {
		t.Fatalf("NewPartitionedWorld: %v", err)
	}
	t.Cleanup(w.Close)
	return w
}

// TestCycleLedgerGolden pins the simulated-cost ledger of fixed op
// streams to the values the line-at-a-time data path produced (commit
// 937f023, before the line-run kernel); its LinesEncrypted are quoted
// beside today's. Ecalls and Ocalls are those of commit c25050b. Where the EPC is a few pages against a trusted heap of
// megabytes, the order of page touches — not only their number — decides
// the fault and eviction counts. The streams that collect under such an
// EPC keep one root; they were written when evacuation followed Go map
// order over the roots (it follows handle-slot order now). Cycles are
// those of the heap that reads each object's header once per heap call
// (DESIGN.md §17): that change moved Cycles and no other field. Cycles
// and MEECopiedBytes are those of void relays that answer nothing on
// every route (DESIGN.md §6), quoted beside the values before: each
// stream's Cycles fell by 1,483 per inward void call (1,400 to
// serialize the null result in the enclave, 80 to decode it outside, 3
// to copy it) plus 683 per outward one (400 + 280 + 3), and its
// MEECopiedBytes by 3 per void crossing. The two batching streams cross
// no void call synchronously and did not move.
func TestCycleLedgerGolden(t *testing.T) {
	t.Run("kv-main", func(t *testing.T) {
		w := goldenWorld(t, 4, heap.Config{InitialSemi: 1 << 20, MaxSemi: 256 << 20})
		if _, err := w.RunMain(); err != nil {
			t.Fatalf("RunMain: %v", err)
		}
		checkLedger(t, ledgerOf(w), ledger{Cycles: 18946220 /* was 19096686: 101 in, 1 out */, Ecalls: 302, Ocalls: 101, PageFaults: 506, Evictions: 502,
			MEECopiedBytes: 12243 /* was 12549 */, LinesEncrypted: 2387 /* was 2773 */})
	})

	t.Run("sized-put-get", func(t *testing.T) {
		w := goldenWorld(t, 16, heap.Config{InitialSemi: 4 << 20, MaxSemi: 256 << 20})
		if err := sizedPutGet(w, 3, nil); err != nil {
			t.Fatal(err)
		}
		checkLedger(t, ledgerOf(w), ledger{Cycles: 8366690 /* was 8382203: 10 in, 1 out */, Ecalls: 19, Ocalls: 10, PageFaults: 253, Evictions: 237,
			MEECopiedBytes: 615130 /* was 615163 */, LinesEncrypted: 6252 /* was 11078 */})
	})

	t.Run("served-sized-put-get", func(t *testing.T) {
		// sized-put-get as a gateway worker runs it: on a lane, whose
		// one entry is charged when it opens. Its 19 hand-offs in
		// replace the stream's 19 ecalls, 11,900 cycles cheaper each,
		// and its 10 hand-offs out the 10 ocalls, 7,400 cheaper each.
		w := goldenWorld(t, 16, heap.Config{InitialSemi: 4 << 20, MaxSemi: 256 << 20})
		lanes, err := w.OpenLanes(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := sizedPutGet(w, 3, lanes[0]); err != nil {
			t.Fatal(err)
		}
		checkLedger(t, ledgerOf(w), ledger{Cycles: 8079690 /* was 8095203 */, Ecalls: 1, SwitchlessEcalls: 19, SwitchlessOcalls: 10, PageFaults: 253, Evictions: 237,
			MEECopiedBytes: 615130, LinesEncrypted: 6252})
	})

	t.Run("alloc-pressure", func(t *testing.T) {
		// A 256 KiB semispace makes the 96 KiB allocations collect and
		// grow from inside AllocData. Several roots are live then, so the
		// EPC is the default one (faults count first touches only) and
		// LinesEncrypted, which follows the to-space layout, is not pinned.
		w := goldenWorld(t, simcfg.DefaultEPCBytes/4096, heap.Config{InitialSemi: 256 << 10, MaxSemi: 256 << 20})
		if err := sizedPutGet(w, 6, nil); err != nil {
			t.Fatal(err)
		}
		got := ledgerOf(w)
		got.LinesEncrypted = 0
		checkLedger(t, got, ledger{Cycles: 6708704 /* was 6737564: 19 in, 1 out */, Ecalls: 37, Ocalls: 19, PageFaults: 183, Collections: 1,
			ObjectsCopied: 271, BytesCopied: 116286, MEECopiedBytes: 1230256 /* was 1230316 */})
	})

	t.Run("collect-live-4k", func(t *testing.T) {
		w := goldenWorld(t, 16, heap.Config{InitialSemi: 1 << 20, MaxSemi: 256 << 20})
		live := func(i int) (wire.Value, string) {
			return wire.Str(fmt.Sprintf("live:%02d", i)), strings.Repeat(string(rune('A'+i%26)), 4<<10)
		}
		var store wire.Value
		err := w.ExecMain(func(env classmodel.Env) error {
			var err error
			if store, err = env.New(demo.KVStoreCls); err != nil {
				return err
			}
			for i := 0; i < 40; i++ {
				key, val := live(i)
				if _, err := env.Call(store, "put", key, wire.Str(val)); err != nil {
					return err
				}
			}
			return w.Untrusted().Pin(store)
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Trusted().Collect(); err != nil {
			t.Fatalf("Collect: %v", err)
		}
		err = w.ExecMain(func(env classmodel.Env) error {
			for i := 0; i < 40; i++ {
				key, val := live(i)
				got, err := env.Call(store, "get", key)
				if err != nil {
					return err
				}
				if s, _ := got.AsStr(); s != val {
					return fmt.Errorf("%v did not survive the collection", key)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		checkLedger(t, ledgerOf(w), ledger{Cycles: 12177260 /* was 12238746: 41 in, 1 out */, Ecalls: 81, Ocalls: 41, PageFaults: 362, Evictions: 346, Collections: 1,
			ObjectsCopied: 382, BytesCopied: 181664, MEECopiedBytes: 329484 /* was 329610 */, LinesEncrypted: 8568 /* was 11302 */})
	})

	t.Run("switchless+batching", func(t *testing.T) {
		// 300 void RMIs closed by one read, under the §7 transition cost
		// and the batching queue. Measured from after boot, as commit
		// c25050b charged it when resident mailbox workers carried these
		// calls (their two boot-time entries are not part of the stream):
		// a second crossing mechanism may not come back at another price.
		w := batchingWorld(t, true)
		boot := ledgerOf(w)
		err := w.ExecMain(func(env classmodel.Env) error {
			acct, err := env.New(demo.Account, wire.Str("Ada"), wire.Int(0))
			if err != nil {
				return err
			}
			for i := 0; i < 300; i++ {
				if _, err := env.Call(acct, "updateBalance", wire.Int(1)); err != nil {
					return err
				}
			}
			bal, err := env.Call(acct, "getBalance")
			if err != nil {
				return err
			}
			if !bal.Equal(wire.Int(300)) {
				return fmt.Errorf("balance = %v, want 300", bal)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got := ledgerOf(w)
		checkLedger(t, ledger{Cycles: got.Cycles - boot.Cycles, Ecalls: got.Ecalls - boot.Ecalls,
			Ocalls: got.Ocalls - boot.Ocalls, MEECopiedBytes: got.MEECopiedBytes - boot.MEECopiedBytes},
			ledger{Cycles: 269763, Ecalls: 11, MEECopiedBytes: 10249})
	})

	t.Run("batch-frames", func(t *testing.T) {
		// Every flush crosses as one batch frame (batching on, rings
		// off): void relay calls queued in both directions, then GC
		// releases swept from both runtimes.
		opts := world.DefaultOptions()
		opts.Cfg.Batching = true
		w, _, err := core.NewPartitionedWorld(twoWayProgram(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if _, err := w.RunMain(); err != nil {
			t.Fatalf("RunMain: %v", err)
		}
		err = w.Exec(false, func(env classmodel.Env) error {
			for i := 0; i < 20; i++ {
				acct, err := env.New(demo.Account, wire.Str(fmt.Sprintf("acct%02d", i)), wire.Int(int64(i)))
				if err != nil {
					return err
				}
				for j := 0; j < 5; j++ {
					if _, err := env.Call(acct, "updateBalance", wire.Int(int64(j))); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		err = w.Exec(true, func(env classmodel.Env) error {
			for i := 0; i < 6; i++ {
				if _, err := env.New(demo.Person, wire.Str(fmt.Sprintf("p%d", i)), wire.Int(int64(i))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, rt := range []*world.Runtime{w.Untrusted(), w.Trusted()} {
			if err := rt.Collect(); err != nil {
				t.Fatal(err)
			}
			if err := w.SweepOnce(rt); err != nil {
				t.Fatal(err)
			}
		}
		if ds := w.DispatchStats(); ds.BatchFlushes == 0 || ds.RingCalls != 0 {
			t.Fatalf("want frame-path flushes only: %+v", ds)
		}
		got := ledgerOf(w)
		checkLedger(t, ledger{Cycles: got.Cycles, Ecalls: got.Ecalls, Ocalls: got.Ocalls, MEECopiedBytes: got.MEECopiedBytes},
			ledger{Cycles: 356487, Ecalls: 12, Ocalls: 2, MEECopiedBytes: 5175})
	})

	t.Run("rings", func(t *testing.T) {
		// The ring data plane on one goroutine, batching on: valued and
		// void calls each way, a flush of queued void calls and a flush of
		// GC releases, all riding the rings. Idle gaps of 2 ms separate
		// the steps, long enough for a thread polling a ring to give up
		// and sleep; every hand-off is priced as polled
		// (simcfg.RingSubmitCycles), so the gaps must not move the ledger.
		opts := world.DefaultOptions()
		opts.Cfg.Batching = true
		opts.Cfg.Rings = true
		w, _, err := core.NewPartitionedWorld(twoWayProgram(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		idle := func() { time.Sleep(2 * time.Millisecond) }
		boot, ds0 := ledgerOf(w), w.DispatchStats()
		idle()
		err = w.Exec(false, func(env classmodel.Env) error {
			acct, err := env.New(demo.Account, wire.Str("Ring"), wire.Int(5))
			if err != nil {
				return err
			}
			idle()
			for j := int64(1); j <= 3; j++ {
				if _, err := env.Call(acct, "updateBalance", wire.Int(j)); err != nil {
					return err
				}
			}
			idle()
			// The read flushes the three queued updates first.
			bal, err := env.Call(acct, "getBalance")
			if err != nil {
				return err
			}
			if !bal.Equal(wire.Int(11)) {
				return fmt.Errorf("balance = %v, want 11", bal)
			}
			idle()
			_, err = env.Call(acct, "updateBalance", wire.Int(1))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		idle()
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		idle()
		err = w.Exec(true, func(env classmodel.Env) error {
			p, err := env.New(demo.Person, wire.Str("Dave"), wire.Int(1))
			if err != nil {
				return err
			}
			idle()
			name, err := env.Call(p, "getName")
			if err != nil {
				return err
			}
			if !name.Equal(wire.Str("Dave")) {
				return fmt.Errorf("name = %v, want Dave", name)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, rt := range []*world.Runtime{w.Untrusted(), w.Trusted()} {
			idle()
			if err := rt.Collect(); err != nil {
				t.Fatal(err)
			}
			idle()
			if err := w.SweepOnce(rt); err != nil {
				t.Fatal(err)
			}
		}
		// Every crossing rode a ring; the two ecalls are Exec's and the
		// trusted sweep's entries.
		ds := w.DispatchStats()
		if ring, full, flushes := ds.RingCalls-ds0.RingCalls, ds.FullCalls-ds0.FullCalls, ds.BatchFlushes-ds0.BatchFlushes; ring != 11 || full != 0 || flushes != 5 {
			t.Fatalf("%d ring calls, %d full, %d flushes; want 11, 0, 5", ring, full, flushes)
		}
		got := ledgerOf(w)
		checkLedger(t, ledger{Cycles: got.Cycles - boot.Cycles, Ecalls: got.Ecalls - boot.Ecalls, Ocalls: got.Ocalls - boot.Ocalls,
			MEECopiedBytes: got.MEECopiedBytes - boot.MEECopiedBytes},
			ledger{Cycles: 70700, Ecalls: 2})
	})

	t.Run("helpers-lifecycle", func(t *testing.T) {
		// The proxy life cycle of the benchmark's rmi workload with the
		// GC helpers started and no rings: create a trusted Entry from
		// outside, call it twice, drop it; every 32nd cycle collects the
		// untrusted heap first, and that collection's helper step
		// releases the mirrors of the proxies it found dead.
		w := lifecycleWorld(t)
		w.StartGCHelpers()
		boot := ledgerOf(w)
		for i := 1; i <= 128; i++ {
			if i%32 == 0 {
				if err := w.Untrusted().Collect(); err != nil {
					t.Fatal(err)
				}
			}
			key, val := wire.Str(fmt.Sprintf("e%03d", i)), wire.Str("v")
			err := w.Exec(false, func(env classmodel.Env) error {
				e, err := env.New(demo.KVEntry, key, val)
				if err != nil {
					return err
				}
				for _, m := range []string{"getkey", "getvalue"} {
					if _, err := env.Call(e, m); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		got := ledgerOf(w)
		checkLedger(t, ledger{Cycles: got.Cycles - boot.Cycles, Ecalls: got.Ecalls - boot.Ecalls, Ocalls: got.Ocalls - boot.Ocalls,
			MEECopiedBytes: got.MEECopiedBytes - boot.MEECopiedBytes},
			ledger{Cycles: 1124889, Ecalls: 388, MEECopiedBytes: 8649})
		// 3 calls in per cycle, and one batch frame per sweep, which
		// releases every proxy dropped since the last one: 31, then 32
		// three times. The trusted heap never collects, so its helper
		// never scans.
		st := w.Stats()
		if st.UntrustedSweeps.Sweeps != 4 || st.UntrustedSweeps.Released != 127 || st.TrustedSweeps.Sweeps != 0 {
			t.Errorf("sweeps: untrusted %+v, trusted %+v", st.UntrustedSweeps, st.TrustedSweeps)
		}
	})
}

// lifecycleWorld is a partitioned KV world with the rmi workload's
// crossing levers but rings, whose untrusted image keeps Entry's proxy
// so that untrusted code can create one.
func lifecycleWorld(t *testing.T) *world.World {
	t.Helper()
	build, err := core.BuildPartitionedConfig(demo.MustKVProgram(), core.BuildConfig{UntrustedReflection: []classmodel.MethodRef{
		{Class: demo.KVEntry, Method: classmodel.CtorName},
		{Class: demo.KVEntry, Method: "getkey"},
		{Class: demo.KVEntry, Method: "getvalue"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	opts := world.DefaultOptions()
	opts.Cfg.Switchless = true
	opts.Cfg.Batching = true
	w, err := world.NewPartitioned(opts, build.TrustedImage, build.UntrustedImage, build.Transform.Interface)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// sizedPutGet overwrites and reads back a 64 B, a 4 KiB and a 96 KiB
// value, rounds times over, from the untrusted runtime — on lane when it
// is not nil.
func sizedPutGet(w *world.World, rounds int, lane *world.Lane) error {
	return w.ExecSpan(false, nil, lane, func(env classmodel.Env) error {
		store, err := env.New(demo.KVStoreCls)
		if err != nil {
			return err
		}
		for round := 0; round < rounds; round++ {
			for _, size := range []int{64, 4 << 10, 96 << 10} {
				key := wire.Str(fmt.Sprintf("k%d", size))
				val := strings.Repeat(string(rune('a'+round)), size)
				if _, err := env.Call(store, "put", key, wire.Str(val)); err != nil {
					return err
				}
				got, err := env.Call(store, "get", key)
				if err != nil {
					return err
				}
				if s, _ := got.AsStr(); s != val {
					return fmt.Errorf("get %d B round %d: read back %d bytes, mismatch", size, round, len(s))
				}
			}
		}
		return nil
	})
}

func checkLedger(t *testing.T, got, want ledger) {
	t.Helper()
	if got != want {
		t.Errorf("ledger moved:\n got  %#v\n want %#v", got, want)
	}
}
