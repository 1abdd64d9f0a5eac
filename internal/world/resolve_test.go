package world_test

import (
	"errors"
	"fmt"
	"testing"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/registry"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// TestBodyResolvesSelfOnce: an activation that reads its own fields N
// times makes no heap handle of its receiver, however large N is: the
// caller holds the receiver, and every read checks the handle the ref
// carries.
func TestBodyResolvesSelfOnce(t *testing.T) {
	var (
		w          *world.World
		midHandles int
	)
	p := twoWayProgram(t)
	reader := classmodel.NewClass("Reader", classmodel.Trusted)
	if err := reader.AddField(classmodel.Field{Name: "n", Kind: classmodel.FieldInt}); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*classmodel.Method{
		{
			Name: classmodel.CtorName, Public: true,
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				return wire.Null(), env.SetField(self, "n", wire.Int(7))
			},
		},
		{
			Name: "readN", Public: true, Returns: wire.KindInt,
			Params: []classmodel.Param{{Name: "k", Kind: wire.KindInt}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				k, _ := args[0].AsInt()
				var v wire.Value
				for i := int64(0); i < k; i++ {
					var err error
					if v, err = env.GetField(self, "n"); err != nil {
						return wire.Value{}, err
					}
				}
				midHandles = w.Trusted().HeapStats().Handles
				return v, nil
			},
		},
	} {
		if err := reader.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddClass(reader); err != nil {
		t.Fatal(err)
	}
	var err error
	w, _, err = core.NewPartitionedWorld(p, world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	err = w.Exec(true, func(env classmodel.Env) error {
		before := w.Trusted().HeapStats().Handles
		r, err := env.New("Reader")
		if err != nil {
			return err
		}
		outer := w.Trusted().HeapStats().Handles
		if outer != before+1 {
			return fmt.Errorf("making an object took %d handles, want 1", outer-before)
		}
		for _, n := range []int64{1, 5, 200} {
			got, err := env.Call(r, "readN", wire.Int(n))
			if err != nil {
				return err
			}
			if !got.Equal(wire.Int(7)) {
				return fmt.Errorf("readN(%d) = %v, want 7", n, got)
			}
			if midHandles != outer {
				return fmt.Errorf("a body reading self %d times made %d handles, want 0", n, midHandles-outer)
			}
			// The caller's own reads resolve through its frame as well.
			for i := int64(0); i < n; i++ {
				if _, err := env.GetField(r, "n"); err != nil {
					return err
				}
			}
			if got := w.Trusted().HeapStats().Handles; got != outer {
				return fmt.Errorf("after %d reads in the Exec frame the heap holds %d handles, want %d", n, got, outer)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := frameHandles(w.Trusted()); got != 0 {
		t.Fatalf("%d frame handles live after all frames closed, want 0", got)
	}
}

// TestFrameOwningThousandsResolvesBounded: a frame that owns thousands
// of refs — a snapshot walk over 2,001 entries — finds each of them
// again through its index. Reading every element of a list once takes
// one handle per element; reading them all again, and using each, takes
// none, and the frame's handles all go with it.
func TestFrameOwningThousandsResolvesBounded(t *testing.T) {
	w := bankWorld(t)
	const n = 2001
	var list wire.Value
	err := w.Exec(true, func(env classmodel.Env) error {
		var err error
		if list, err = env.New(classmodel.BuiltinList); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			e, err := env.New(classmodel.BuiltinList)
			if err != nil {
				return err
			}
			if _, err := env.Call(list, "add", e); err != nil {
				return err
			}
		}
		return w.Trusted().Pin(list)
	})
	if err != nil {
		t.Fatal(err)
	}
	before := w.Trusted().HeapStats().Handles
	err = w.Exec(true, func(env classmodel.Env) error {
		walk := func() error {
			for i := 0; i < n; i++ {
				e, err := env.Call(list, "get", wire.Int(int64(i)))
				if err != nil {
					return err
				}
				if _, err := env.Call(e, "size"); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(); err != nil {
			return err
		}
		if got := w.Trusted().HeapStats().Handles - before; got != n {
			return fmt.Errorf("the first walk over %d elements took %d handles, want %d", n, got, n)
		}
		if err := walk(); err != nil {
			return err
		}
		if got := w.Trusted().HeapStats().Handles - before; got != n {
			return fmt.Errorf("walking %d elements again took %d more handles, want 0", n, got-n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Trusted().HeapStats().Handles; got != before {
		t.Fatalf("%d handles after the walk's frame closed, want %d", got, before)
	}
}

// TestPinNamedOneRetentionPerHandle: naming an object in a namespace pins
// it once however often it is named, on the handle the frame holds it
// by; a drained namespace names nothing and keeps no pin.
func TestPinNamedOneRetentionPerHandle(t *testing.T) {
	w := bankWorld(t)
	rt := w.Untrusted()
	ns := registry.NewNamespace()
	var hash int64
	before := rt.HeapStats().Handles
	err := w.Exec(false, func(env classmodel.Env) error {
		p, err := env.New(demo.Person, wire.Str("Ann"), wire.Int(4))
		if err != nil {
			return err
		}
		_, hash, _ = p.AsRef()
		first, err := rt.PinNamed(ns, p)
		if err != nil {
			return err
		}
		again, err := rt.PinNamed(ns, p)
		if err != nil {
			return err
		}
		if first == 0 || again != first {
			return fmt.Errorf("handles %d then %d, want one nonzero handle", first, again)
		}
		// One pin, on the one handle the Exec frame made.
		if got, h := rt.Pins(hash), rt.HeapStats().Handles-before; got != 1 || h != 1 {
			return fmt.Errorf("%d pins and %d handles after naming twice, want 1 and 1", got, h)
		}
		ns.Drain()
		if h, err := rt.PinNamed(ns, p); h != 0 || err != nil {
			return fmt.Errorf("drained namespace: handle %d, err %v; want 0, nil", h, err)
		}
		if got, h := rt.Pins(hash), rt.HeapStats().Handles-before; got != 1 || h != 1 {
			return fmt.Errorf("%d pins and %d handles after naming in a drained namespace, want 1 and 1", got, h)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, h := rt.Pins(hash), rt.HeapStats().Handles-before; got != 1 || h != 1 {
		t.Fatalf("%d pins and %d handles once the frame closed, want the pin's 1 and 1", got, h)
	}
}

// TestCalleeBorrowsCallerRetentions: a callee makes no heap handle of
// self or of a ref argument its caller already holds; it uses the
// caller's, down a chain of nested calls. An object the caller does not
// hold (here one read from a field inside the callee) takes one handle
// in the activation that reads it, which the calls that activation makes
// use in turn. Once every frame has closed, neither side holds a frame
// handle.
func TestCalleeBorrowsCallerRetentions(t *testing.T) {
	var (
		w    *world.World
		base int
		got  = map[string]int{}
	)
	// made reports the trusted handles made since the Exec frame's last
	// object.
	made := func() int { return w.Trusted().HeapStats().Handles - base }
	intField := func(env classmodel.Env, v wire.Value) (int64, error) {
		f, err := env.GetField(v, "n")
		n, _ := f.AsInt()
		return n, err
	}
	p := twoWayProgram(t)
	node := classmodel.NewClass("Node", classmodel.Trusted)
	for _, f := range []classmodel.Field{
		{Name: "n", Kind: classmodel.FieldInt},
		{Name: "next", Kind: classmodel.FieldRef, ClassName: "Node"},
	} {
		if err := node.AddField(f); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []*classmodel.Method{
		{
			Name: classmodel.CtorName, Public: true,
			Params: []classmodel.Param{{Name: "n", Kind: wire.KindInt}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				return wire.Null(), env.SetField(self, "n", args[0])
			},
		},
		{
			// grow links a node that only the field keeps.
			Name: "grow", Public: true,
			Params: []classmodel.Param{{Name: "n", Kind: wire.KindInt}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				next, err := env.New("Node", args[0])
				if err != nil {
					return wire.Value{}, err
				}
				return wire.Null(), env.SetField(self, "next", next)
			},
		},
		{
			Name: "get", Public: true, Returns: wire.KindInt,
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				got["get self"] = made()
				n, err := intField(env, self)
				return wire.Int(n), err
			},
		},
		{
			Name: "sum", Public: true, Returns: wire.KindInt,
			Params: []classmodel.Param{{Name: "other", Kind: wire.KindRef, ClassName: "Node"}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				got["sum entry"] = made()
				a, err := intField(env, self)
				if err != nil {
					return wire.Value{}, err
				}
				b, err := intField(env, args[0])
				if err != nil {
					return wire.Value{}, err
				}
				next, err := env.GetField(self, "next")
				if err != nil {
					return wire.Value{}, err
				}
				got["sum next"] = made()
				c, err := env.Call(next, "get")
				if err != nil {
					return wire.Value{}, err
				}
				got["after get"] = made()
				n, _ := c.AsInt()
				return wire.Int(a + b + n), nil
			},
		},
	} {
		if err := node.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddClass(node); err != nil {
		t.Fatal(err)
	}
	var err error
	w, _, err = core.NewPartitionedWorld(p, world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	err = w.Exec(true, func(env classmodel.Env) error {
		a, err := env.New("Node", wire.Int(1))
		if err != nil {
			return err
		}
		b, err := env.New("Node", wire.Int(2))
		if err != nil {
			return err
		}
		if _, err := env.Call(a, "grow", wire.Int(4)); err != nil {
			return err
		}
		base = w.Trusted().HeapStats().Handles
		sum, err := env.Call(a, "sum", b)
		if err != nil {
			return err
		}
		if !sum.Equal(wire.Int(7)) {
			return fmt.Errorf("sum = %v, want 7", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		// self and the argument: the Exec frame's handles.
		"sum entry": 0,
		// next: sum's own handle, which get uses.
		"sum next": 1, "get self": 1, "after get": 1,
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: %d handles made, want %d", k, got[k], n)
		}
	}
	for _, rt := range []*world.Runtime{w.Trusted(), w.Untrusted()} {
		if n := frameHandles(rt); n != 0 {
			t.Errorf("%s heap holds %d handles besides registry exports after all frames closed, want 0", sideOf(w, rt), n)
		}
	}
}

// TestBodyPinsAnElement: a method body pins an element it read with
// List.get. The pin holds the element past the body's frame, so a later
// Exec reaches it by the ref the body returned and by a bare ref naming
// its hash; unpinned, its handle goes and the trusted heap holds only
// registry exports again.
func TestBodyPinsAnElement(t *testing.T) {
	var w *world.World
	p := twoWayProgram(t)
	box := classmodel.NewClass("Box", classmodel.Trusted)
	if err := box.AddField(classmodel.Field{Name: "items", Kind: classmodel.FieldRef, ClassName: classmodel.BuiltinList}); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*classmodel.Method{
		{
			Name: classmodel.CtorName, Public: true, Allocates: []string{classmodel.BuiltinList},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				items, err := env.New(classmodel.BuiltinList)
				if err != nil {
					return wire.Value{}, err
				}
				for i := 0; i < 4; i++ {
					e, err := env.New(classmodel.BuiltinList)
					if err != nil {
						return wire.Value{}, err
					}
					if _, err := env.Call(items, "add", e); err != nil {
						return wire.Value{}, err
					}
				}
				return wire.Null(), env.SetField(self, "items", items)
			},
		},
		{
			Name: "pinSecond", Public: true, Returns: wire.KindRef,
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				items, err := env.GetField(self, "items")
				if err != nil {
					return wire.Value{}, err
				}
				e, err := env.Call(items, "get", wire.Int(2))
				if err != nil {
					return wire.Value{}, err
				}
				return e, w.Trusted().Pin(e)
			},
		},
	} {
		if err := box.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddClass(box); err != nil {
		t.Fatal(err)
	}
	var err error
	w, _, err = core.NewPartitionedWorld(p, world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	var pinned wire.Value
	err = w.Exec(true, func(env classmodel.Env) error {
		b, err := env.New("Box")
		if err != nil {
			return err
		}
		pinned, err = env.Call(b, "pinSecond")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := w.Trusted()
	_, hash, _ := pinned.AsRef()
	if got, h := rt.Pins(hash), frameHandles(rt); got != 1 || h != 1 {
		t.Fatalf("%d pins and %d handles besides exports once the frames closed, want 1 and 1", got, h)
	}
	err = w.Exec(true, func(env classmodel.Env) error {
		for _, ref := range []wire.Value{pinned, wire.Ref(classmodel.BuiltinList, hash)} {
			if n, err := env.Call(ref, "size"); err != nil || !n.Equal(wire.Int(0)) {
				return fmt.Errorf("size of the pinned element = %v, %v; want 0", n, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Unpin(pinned); err != nil {
		t.Fatal(err)
	}
	if got := frameHandles(rt); got != 0 {
		t.Fatalf("%d handles besides exports after unpin, want 0", got)
	}
}

// TestStaleRefNeverAliases: host code keeps a ref across Execs after the
// handle it carries has gone. When that handle's slot is reissued to
// another object — under a generation whose low 16 bits read the same
// again, as a busy slot's do every 65,536 reissues — the ref does not
// resolve to the slot's new object: an operation on it fails with
// ErrNoSuchObject, and a ref naming a pinned object finds that object
// through the pins whatever handle it carries.
func TestStaleRefNeverAliases(t *testing.T) {
	w := bankWorld(t)
	rt := w.Untrusted()
	newStr := func(env classmodel.Env, s string) (wire.Value, error) {
		return env.New(classmodel.BuiltinString, wire.Str(s))
	}
	var pinned, stale wire.Value
	err := w.Exec(false, func(env classmodel.Env) error {
		var err error
		if pinned, err = newStr(env, "pinned"); err != nil {
			return err
		}
		return rt.Pin(pinned)
	})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Exec(false, func(env classmodel.Env) (err error) {
		stale, err = newStr(env, "stale")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	_, pinnedHash, _ := pinned.AsRef()
	for i := 0; ; i++ {
		if i > 1<<17 {
			t.Fatalf("the stale ref's handle bits did not come round in %d reissues", i)
		}
		came := false
		err := w.Exec(false, func(env classmodel.Env) error {
			fresh, err := newStr(env, "fresh")
			if err != nil || fresh.Handle() != stale.Handle() {
				return err
			}
			came = true
			if v, err := env.Call(stale, "value"); !errors.Is(err, world.ErrNoSuchObject) {
				return fmt.Errorf("stale ref read %v, %v; want ErrNoSuchObject", v, err)
			}
			forged := wire.Ref(classmodel.BuiltinString, pinnedHash).WithHandle(fresh.Handle())
			if v, err := env.Call(forged, "value"); err != nil || !v.Equal(wire.Str("pinned")) {
				return fmt.Errorf("pinned ref carrying another object's handle read %v, %v; want \"pinned\"", v, err)
			}
			if v, err := env.Call(fresh, "value"); err != nil || !v.Equal(wire.Str("fresh")) {
				return fmt.Errorf("fresh ref read %v, %v; want \"fresh\"", v, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if came {
			if i < 1<<16-1 {
				t.Fatalf("the handle bits came round after %d reissues, want a wrapped generation", i+1)
			}
			break
		}
	}
}
