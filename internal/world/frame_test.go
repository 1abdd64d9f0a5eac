package world_test

import (
	"fmt"
	"sync"
	"testing"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// parkedEnvs holds, per token, a closure over the Env of a trusted
// activation that is blocked in an outgoing call. The untrusted body that
// call reaches — on a switchless host worker, a ring consumer or, after a
// fallback, the caller's own goroutine — runs it.
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
// record, breaks the stamp or leaves the object tables out of balance.
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
				if got := rt.Stats().ObjectTableLen; got != 0 {
					t.Errorf("%s object table has %d entries after all frames closed, want 0", sideOf(w, rt), got)
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
