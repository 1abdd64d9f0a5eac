package world_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// parkedEnvs holds, per token, a closure over the Env of a trusted
// activation that is blocked in an outgoing call. The untrusted body that
// call reaches — on a lane, a ring or, after a fallback, the full route,
// all on the caller's own goroutine — runs it.
var parkedEnvs sync.Map // token string -> func() (wire.Value, error)

// parkingProgram extends the two-way program with a trusted Parker whose
// work method parks its own Env in a closure, crosses to an untrusted
// Sink that runs the closure, and then goes on using the Env itself.
// Sink.drive is the untrusted entry: it makes a Parker and puts it to
// work, which keeps the Parker proxy in the untrusted image.
func parkingProgram(t *testing.T) *classmodel.Program {
	t.Helper()
	p := twoWayProgram(t)
	null := func(classmodel.Env, wire.Value, []wire.Value) (wire.Value, error) { return wire.Null(), nil }

	sink := classmodel.NewClass("Sink", classmodel.Untrusted)
	parker := classmodel.NewClass("Parker", classmodel.Trusted)
	add := func(c *classmodel.Class, m *classmodel.Method) {
		t.Helper()
		m.Public = true
		if err := c.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	add(sink, &classmodel.Method{Name: classmodel.CtorName, Body: null})
	add(sink, &classmodel.Method{
		Name: "poke", Returns: wire.KindInt,
		Params: []classmodel.Param{{Name: "token", Kind: wire.KindString}},
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			token, _ := args[0].AsStr()
			parked, ok := parkedEnvs.Load(token)
			if !ok {
				return wire.Value{}, fmt.Errorf("nothing parked under %q", token)
			}
			return parked.(func() (wire.Value, error))()
		},
	})

	add(sink, &classmodel.Method{
		Name: "drive", Returns: wire.KindInt,
		Params: []classmodel.Param{
			{Name: "n", Kind: wire.KindInt},
			{Name: "token", Kind: wire.KindString},
		},
		Allocates: []string{"Parker"},
		Calls:     []classmodel.MethodRef{{Class: "Parker", Method: "work"}},
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			parker, err := env.New("Parker", args[0])
			if err != nil {
				return wire.Value{}, err
			}
			return env.Call(parker, "work", args[1])
		},
	})

	if err := parker.AddField(classmodel.Field{Name: "n", Kind: classmodel.FieldInt}); err != nil {
		t.Fatal(err)
	}
	add(parker, &classmodel.Method{
		Name:   classmodel.CtorName,
		Params: []classmodel.Param{{Name: "n", Kind: wire.KindInt}},
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return wire.Null(), env.SetField(self, "n", args[0])
		},
	})
	add(parker, &classmodel.Method{
		Name: "stamp", Returns: wire.KindInt,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return env.GetField(self, "n")
		},
	})
	add(parker, &classmodel.Method{
		Name: "work", Returns: wire.KindInt,
		Params:    []classmodel.Param{{Name: "token", Kind: wire.KindString}},
		Allocates: []string{"Sink"},
		Calls: []classmodel.MethodRef{
			{Class: "Sink", Method: "poke"},
			{Class: "Parker", Method: "stamp"},
		},
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			token, _ := args[0].AsStr()
			parkedEnvs.Store(token, func() (wire.Value, error) { return env.Call(self, "stamp") })
			defer parkedEnvs.Delete(token)
			sink, err := env.New("Sink")
			if err != nil {
				return wire.Value{}, err
			}
			// The far side runs the parked closure against this
			// activation's Env while this body waits for the call.
			viaWorker, err := env.Call(sink, "poke", args[0])
			if err != nil {
				return wire.Value{}, err
			}
			// Back here the Env must still be this activation's own.
			own, err := env.Call(self, "stamp")
			if err != nil {
				return wire.Value{}, err
			}
			if !own.Equal(viaWorker) {
				return wire.Value{}, fmt.Errorf("stamp via worker %v, own %v", viaWorker, own)
			}
			return own, nil
		},
	})
	for _, c := range []*classmodel.Class{sink, parker} {
		if err := p.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestPooledFrameOutlivesParkedClosures drives the activation record's
// lifetime rule — released only after the body and every closure it
// handed to a worker have returned — on each crossing route, from many
// goroutines at once so records change hands through the pool. A record
// released early would be written by releaseFrame (and by its next
// holder) while a worker still reads it, which -race reports; a record
// released twice, or a closure running against another activation's
// record, breaks the stamp or leaves frame handles behind.
func TestPooledFrameOutlivesParkedClosures(t *testing.T) {
	routes := map[string]func(*world.Options){
		"full":       func(o *world.Options) {},
		"switchless": func(o *world.Options) { o.Cfg.Switchless = true },
		"rings":      func(o *world.Options) { o.Cfg.Rings = true },
	}
	for name, route := range routes {
		t.Run(name, func(t *testing.T) {
			opts := world.DefaultOptions()
			route(&opts)
			w, _, err := core.NewPartitionedWorld(parkingProgram(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			const goroutines = 8
			iters := 40
			if testing.Short() {
				iters = 10
			}
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						want := wire.Int(int64(g*1000 + i))
						err := w.Exec(false, func(env classmodel.Env) error {
							sink, err := env.New("Sink")
							if err != nil {
								return err
							}
							got, err := env.Call(sink, "drive", want, wire.Str(fmt.Sprintf("%s-%d-%d", name, g, i)))
							if err != nil {
								return err
							}
							if !got.Equal(want) {
								return fmt.Errorf("work = %v, want %v", got, want)
							}
							return nil
						})
						if err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for _, rt := range []*world.Runtime{w.Untrusted(), w.Trusted()} {
				if got := frameHandles(rt); got != 0 {
					t.Errorf("%s heap holds %d handles besides registry exports after all frames closed, want 0", sideOf(w, rt), got)
				}
			}
		})
	}
}

// TestLocalCallAllocs: a call that stays inside the runtime — here a
// builtin List method, the unit the KV store's bucket scans are made of —
// takes its activation record from the pool and allocates nothing.
func TestLocalCallAllocs(t *testing.T) {
	w := bankWorld(t)
	err := w.Exec(false, func(env classmodel.Env) error {
		list, err := env.New(classmodel.BuiltinList)
		if err != nil {
			return err
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := env.Call(list, "size"); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Errorf("env.Call(list, \"size\") = %v allocs, want 0", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// kvGetAllocCeiling bounds the host allocations of one in-enclave
// KVStore get on 8 keys per bucket: a string key read per Entry scanned
// and the value read. 13 while every call with arguments allocated its
// argument slice and every element a scan read took an object-table
// entry, 18 until a string field read stopped copying its payload twice.
// kvPutAllocCeiling bounds a fresh put on 16 keys per bucket the same
// way (24 before arguments stayed off the host heap). raceAllocSlack
// covers the activation records sync.Pool drops under the race detector
// in a get; a fresh put takes about twice a get's records (it scans
// about twice the elements) and is allowed twice the slack.
const (
	kvGetAllocCeiling = 5
	kvPutAllocCeiling = 10
	raceAllocSlack    = 8
)

// TestKVGetAllocBound: an in-enclave KVStore get allocates at most
// kvGetAllocCeiling times on the host. AllocsPerRun counts allocations,
// not time, so the bound holds on any machine.
func TestKVGetAllocBound(t *testing.T) {
	const buckets, perBucket = 16, 8
	prog, err := demo.KVProgramWithBuckets(buckets)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := core.NewPartitionedWorld(prog, world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	keys := make([]wire.Value, buckets*perBucket)
	for i := range keys {
		keys[i] = wire.Str(fmt.Sprintf("key:%04d", i))
	}
	value := wire.Str(strings.Repeat("v", 64))
	err = w.Exec(true, func(env classmodel.Env) error {
		store, err := env.New(demo.KVStoreCls)
		if err != nil {
			return err
		}
		for _, k := range keys {
			if _, err := env.Call(store, "put", k, value); err != nil {
				return err
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(len(keys), func() {
			v, err := env.Call(store, "get", keys[i%len(keys)])
			if err != nil || !v.Equal(value) {
				t.Errorf("get %v = %v, %v; want the 64 B value", keys[i%len(keys)], v, err)
			}
			i++
		})
		t.Logf("one in-enclave get: %v allocations", allocs)
		ceiling := kvGetAllocCeiling
		if raceEnabled {
			ceiling += raceAllocSlack
		}
		if allocs > float64(ceiling) {
			t.Errorf("one in-enclave get = %v allocs, want <= %d", allocs, ceiling)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestKVPutAllocBound: a fresh in-enclave KVStore put — a bucket scan,
// a new Entry, two list adds and the audit ocall — allocates at most
// kvPutAllocCeiling times on the host.
func TestKVPutAllocBound(t *testing.T) {
	prog, err := demo.KVProgramWithBuckets(16)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := core.NewPartitionedWorld(prog, world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const puts = 16 * 16
	keys := make([]wire.Value, puts)
	for i := range keys {
		keys[i] = wire.Str(fmt.Sprintf("key:%04d", i))
	}
	value := wire.Str(strings.Repeat("v", 64))
	err = w.Exec(true, func(env classmodel.Env) error {
		store, err := env.New(demo.KVStoreCls)
		if err != nil {
			return err
		}
		i := 0
		allocs := testing.AllocsPerRun(puts-1, func() {
			if _, err := env.Call(store, "put", keys[i], value); err != nil {
				t.Error(err)
			}
			i++
		})
		t.Logf("one fresh in-enclave put: %v allocations", allocs)
		ceiling := kvPutAllocCeiling
		if raceEnabled {
			ceiling += 2 * raceAllocSlack
		}
		if allocs > float64(ceiling) {
			t.Errorf("one fresh in-enclave put = %v allocs, want <= %d", allocs, ceiling)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
