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
// times retains its receiver in the object table once — the dispatch
// retention — however large N is; every later read finds the handle in
// the frame.
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
			if midRefs != outer+1 {
				return fmt.Errorf("a body reading self %d times holds %d table retentions of it, want 1", n, midRefs-outer)
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
