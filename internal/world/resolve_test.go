package world_test

import (
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
// times takes no object-table retention of its receiver, however large N
// is: the caller holds the receiver, the callee borrows that retention,
// and every read finds the handle in the frame.
func TestBodyResolvesSelfOnce(t *testing.T) {
	var (
		w       *world.World
		midRefs int
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
				_, hash, _ := self.AsRef()
				midRefs = w.Trusted().TableRefs(hash)
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
		r, err := env.New("Reader")
		if err != nil {
			return err
		}
		_, hash, _ := r.AsRef()
		outer := w.Trusted().TableRefs(hash)
		if outer != 1 {
			return fmt.Errorf("the Exec frame holds %d retentions of the object it made, want 1", outer)
		}
		for _, n := range []int64{1, 5, 200} {
			got, err := env.Call(r, "readN", wire.Int(n))
			if err != nil {
				return err
			}
			if !got.Equal(wire.Int(7)) {
				return fmt.Errorf("readN(%d) = %v, want 7", n, got)
			}
			if midRefs != outer {
				return fmt.Errorf("a body reading self %d times holds %d table retentions of it, want 0", n, midRefs-outer)
			}
			// The caller's own reads resolve through its frame as well.
			for i := int64(0); i < n; i++ {
				if _, err := env.GetField(r, "n"); err != nil {
					return err
				}
			}
			if got := w.Trusted().TableRefs(hash); got != outer {
				return fmt.Errorf("after %d reads in the Exec frame the table holds %d retentions, want %d", n, got, outer)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Trusted().Stats().ObjectTableLen; got != 0 {
		t.Fatalf("object table has %d entries after all frames closed, want 0", got)
	}
}

// TestFrameOwningThousandsResolvesBounded: a frame that owns more than a
// thousand refs — a recovery pass or a snapshot walk — searches only its
// first few retentions. A ref among them resolves without a new table
// retention; a ref past them takes one more, as it did before frames
// were searched at all, so the search does not grow with the frame.
func TestFrameOwningThousandsResolvesBounded(t *testing.T) {
	w := bankWorld(t)
	const n = 1500
	err := w.Exec(true, func(env classmodel.Env) error {
		lists := make([]wire.Value, n)
		for i := range lists {
			l, err := env.New(classmodel.BuiltinList)
			if err != nil {
				return err
			}
			lists[i] = l
		}
		for _, tc := range []struct {
			i    int
			grow int
		}{{0, 0}, {3, 0}, {n / 2, 1}, {n - 1, 1}} {
			_, hash, _ := lists[tc.i].AsRef()
			before := w.Trusted().TableRefs(hash)
			if _, err := env.Call(lists[tc.i], "size"); err != nil {
				return err
			}
			if got := w.Trusted().TableRefs(hash) - before; got != tc.grow {
				return fmt.Errorf("resolving ref %d of %d added %d table retentions, want %d", tc.i, n, got, tc.grow)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Trusted().Stats().ObjectTableLen; got != 0 {
		t.Fatalf("object table has %d entries after all frames closed, want 0", got)
	}
}

// TestPinNamedOneRetentionPerHandle: naming an object in a namespace pins
// it once however often it is named; a drained namespace names nothing
// and keeps no pin.
func TestPinNamedOneRetentionPerHandle(t *testing.T) {
	w := bankWorld(t)
	rt := w.Untrusted()
	ns := registry.NewNamespace()
	var hash int64
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
		// The Exec frame's retention plus the one pin.
		if got := rt.TableRefs(hash); got != 2 {
			return fmt.Errorf("%d table retentions after naming twice, want 2", got)
		}
		ns.Drain()
		if h, err := rt.PinNamed(ns, p); h != 0 || err != nil {
			return fmt.Errorf("drained namespace: handle %d, err %v; want 0, nil", h, err)
		}
		if got := rt.TableRefs(hash); got != 2 {
			return fmt.Errorf("%d table retentions after naming in a drained namespace, want 2", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.TableRefs(hash); got != 1 {
		t.Fatalf("%d table retentions once the frame closed, want the pin's 1", got)
	}
}

// TestCalleeBorrowsCallerRetentions: a callee takes no object-table
// retention of self or of a ref argument its caller already holds; it
// borrows the caller's, down a chain of nested calls. An object the
// caller does not hold (here one read from a field inside the callee)
// is retained once by the activation that resolves it and borrowed by
// the calls that activation makes. Once every frame has closed, the
// table is empty on both sides.
func TestCalleeBorrowsCallerRetentions(t *testing.T) {
	var (
		w   *world.World
		got = map[string]int{}
	)
	refs := func(v wire.Value) int {
		_, hash, _ := v.AsRef()
		return w.Trusted().TableRefs(hash)
	}
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
				got["get self"] = refs(self)
				n, err := intField(env, self)
				return wire.Int(n), err
			},
		},
		{
			Name: "sum", Public: true, Returns: wire.KindInt,
			Params: []classmodel.Param{{Name: "other", Kind: wire.KindRef, ClassName: "Node"}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				got["sum self"], got["sum other"] = refs(self), refs(args[0])
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
				got["sum next"] = refs(next)
				c, err := env.Call(next, "get")
				if err != nil {
					return wire.Value{}, err
				}
				got["after get"] = refs(next)
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
		if refs(a) != 1 || refs(b) != 1 {
			return fmt.Errorf("the Exec frame holds %d and %d retentions of the nodes it made, want 1 each", refs(a), refs(b))
		}
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
		// self and the argument: the Exec frame's retention, borrowed.
		"sum self": 1, "sum other": 1,
		// next: sum's own retention, which get borrows.
		"sum next": 1, "get self": 1, "after get": 1,
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: %d table retentions, want %d", k, got[k], n)
		}
	}
	for _, rt := range []*world.Runtime{w.Trusted(), w.Untrusted()} {
		if n := rt.Stats().ObjectTableLen; n != 0 {
			t.Errorf("object table has %d entries after all frames closed, want 0", n)
		}
	}
}
