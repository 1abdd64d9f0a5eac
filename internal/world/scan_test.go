package world_test

import (
	"fmt"
	"testing"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// shelfItems is the number of Accounts a Shelf lists: more than a frame's
// first frameInlineOwned refs, so a scan reaches past them.
const shelfItems = 12

// shelfWorld is the bank program plus a trusted Shelf that lists
// shelfItems Accounts and an untrusted Echo that reads an Account handed
// to it, in a partitioned world. Each Shelf method body records, under
// its own name, the trusted heap's live handles after it read an
// element, while it still held it.
func shelfWorld(t *testing.T) (w *world.World, seen map[string][]int) {
	t.Helper()
	seen = map[string][]int{}
	handles := func() int { return w.Trusted().HeapStats().Handles }
	item := func(env classmodel.Env, self wire.Value, i int) (wire.Value, error) {
		items, err := env.GetField(self, "items")
		if err != nil {
			return wire.Value{}, err
		}
		return env.Call(items, "get", wire.Int(int64(i)))
	}
	balance := func(env classmodel.Env, a wire.Value) (int64, error) {
		v, err := env.Call(a, "getBalance")
		n, _ := v.AsInt()
		return n, err
	}
	acct := classmodel.MethodRef{Class: demo.Account, Method: "getBalance"}
	p := demo.MustBankProgram()
	shelf := classmodel.NewClass("Shelf", classmodel.Trusted)
	for _, f := range []classmodel.Field{
		{Name: "items", Kind: classmodel.FieldRef, ClassName: classmodel.BuiltinList},
		{Name: "last", Kind: classmodel.FieldRef, ClassName: demo.Account},
	} {
		if err := shelf.AddField(f); err != nil {
			t.Fatal(err)
		}
	}
	echo := classmodel.NewClass("Echo", classmodel.Untrusted)
	for _, m := range []*classmodel.Method{
		{Name: classmodel.CtorName, Public: true, Body: func(classmodel.Env, wire.Value, []wire.Value) (wire.Value, error) {
			return wire.Null(), nil
		}},
		{
			Name: "touch", Public: true, Returns: wire.KindInt, Calls: []classmodel.MethodRef{acct},
			Params: []classmodel.Param{{Name: "a", Kind: wire.KindRef, ClassName: demo.Account}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				n, err := balance(env, args[0])
				return wire.Int(n), err
			},
		},
		{
			// back calls the Shelf handed to it back on the Account
			// handed beside it.
			Name: "back", Public: true, Returns: wire.KindInt, Calls: []classmodel.MethodRef{{Class: "Shelf", Method: "weigh"}},
			Params: []classmodel.Param{{Name: "s", Kind: wire.KindRef, ClassName: "Shelf"}, {Name: "a", Kind: wire.KindRef, ClassName: demo.Account}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				return env.Call(args[0], "weigh", args[1])
			},
		},
	} {
		if err := echo.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []*classmodel.Method{
		{
			Name: classmodel.CtorName, Public: true, Allocates: []string{classmodel.BuiltinList, demo.Account},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				items, err := env.New(classmodel.BuiltinList)
				if err != nil {
					return wire.Value{}, err
				}
				for i := 0; i < shelfItems; i++ {
					a, err := env.New(demo.Account, wire.Str(fmt.Sprintf("a%d", i)), wire.Int(int64(i)))
					if err != nil {
						return wire.Value{}, err
					}
					if _, err := env.Call(items, "add", a); err != nil {
						return wire.Value{}, err
					}
				}
				return wire.Null(), env.SetField(self, "items", items)
			},
		},
		{
			// far reads every item, then uses the first, stores one past
			// the frame's first refs, calls it and passes two more to
			// pair.
			Name: "far", Public: true, Returns: wire.KindInt, Calls: []classmodel.MethodRef{acct, {Class: "Shelf", Method: "pair"}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				var items []wire.Value
				for i := 0; i < shelfItems; i++ {
					a, err := item(env, self, i)
					if err != nil {
						return wire.Value{}, err
					}
					items = append(items, a)
					seen["far"] = append(seen["far"], handles())
				}
				a, err := balance(env, items[0])
				if err != nil {
					return wire.Value{}, err
				}
				if err := env.SetField(self, "last", items[10]); err != nil {
					return wire.Value{}, err
				}
				b, err := balance(env, items[10])
				if err != nil {
					return wire.Value{}, err
				}
				c, err := env.Call(self, "pair", items[11], items[9])
				n, _ := c.AsInt()
				return wire.Int(a + b + n), err
			},
		},
		{
			Name: "pair", Public: true, Returns: wire.KindInt, Calls: []classmodel.MethodRef{acct},
			Params: []classmodel.Param{{Name: "a", Kind: wire.KindRef, ClassName: demo.Account}, {Name: "b", Kind: wire.KindRef, ClassName: demo.Account}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				a, err := balance(env, args[0])
				if err != nil {
					return wire.Value{}, err
				}
				b, err := balance(env, args[1])
				return wire.Int(a + b), err
			},
		},
		{
			// pick returns an item to its caller.
			Name: "pick", Public: true, Returns: wire.KindRef,
			Params: []classmodel.Param{{Name: "i", Kind: wire.KindInt}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				i, _ := args[0].AsInt()
				return item(env, self, int(i))
			},
		},
		{
			// stash stores an item in a field that readLast, a callee,
			// reads back: the callee meets its caller's element again.
			Name: "stash", Public: true, Returns: wire.KindInt, Calls: []classmodel.MethodRef{{Class: "Shelf", Method: "readLast"}},
			Params: []classmodel.Param{{Name: "i", Kind: wire.KindInt}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				i, _ := args[0].AsInt()
				a, err := item(env, self, int(i))
				if err != nil {
					return wire.Value{}, err
				}
				if err := env.SetField(self, "last", a); err != nil {
					return wire.Value{}, err
				}
				n, err := env.Call(self, "readLast")
				seen["stash"] = append(seen["stash"], handles())
				return n, err
			},
		},
		{
			Name: "readLast", Public: true, Returns: wire.KindInt, Calls: []classmodel.MethodRef{acct},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				a, err := env.GetField(self, "last")
				if err != nil {
					return wire.Value{}, err
				}
				seen["readLast"] = append(seen["readLast"], handles())
				n, err := balance(env, a)
				return wire.Int(n), err
			},
		},
		{
			// crossBack hands itself and an item to untrusted code,
			// which calls weigh back on both.
			Name: "crossBack", Public: true, Returns: wire.KindInt, Allocates: []string{"Echo"}, Calls: []classmodel.MethodRef{{Class: "Echo", Method: "back"}},
			Params: []classmodel.Param{{Name: "i", Kind: wire.KindInt}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				i, _ := args[0].AsInt()
				a, err := item(env, self, int(i))
				if err != nil {
					return wire.Value{}, err
				}
				e, err := env.New("Echo")
				if err != nil {
					return wire.Value{}, err
				}
				return env.Call(e, "back", self, a)
			},
		},
		{
			Name: "weigh", Public: true, Returns: wire.KindInt, Calls: []classmodel.MethodRef{acct},
			Params: []classmodel.Param{{Name: "a", Kind: wire.KindRef, ClassName: demo.Account}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				seen["weigh"] = append(seen["weigh"], handles())
				n, err := balance(env, args[0])
				return wire.Int(n), err
			},
		},
		{
			// cross hands an item to untrusted code, which calls back
			// into the enclave on it.
			Name: "cross", Public: true, Returns: wire.KindInt, Allocates: []string{"Echo"}, Calls: []classmodel.MethodRef{{Class: "Echo", Method: "touch"}},
			Params: []classmodel.Param{{Name: "i", Kind: wire.KindInt}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				i, _ := args[0].AsInt()
				a, err := item(env, self, int(i))
				if err != nil {
					return wire.Value{}, err
				}
				e, err := env.New("Echo")
				if err != nil {
					return wire.Value{}, err
				}
				return env.Call(e, "touch", a)
			},
		},
	} {
		if err := shelf.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []*classmodel.Class{shelf, echo} {
		if err := p.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	w, _, err := core.NewPartitionedWorld(p, world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w, seen
}

// TestScannedElementsHoldOneHandle: an element a method body reads from
// a list takes one heap handle while the body holds it, and no more
// however it is used: read again past the frame's first refs, passed to
// a callee, stored and read back by a callee, and handed across the
// boundary and called back on. A returned element's handle passes to
// the caller. Every frame closed, the trusted heap holds no handle it
// did not hold before but the one export the crossing made.
func TestScannedElementsHoldOneHandle(t *testing.T) {
	w, seen := shelfWorld(t)
	handles := w.Trusted().HeapStats().Handles
	bases := map[string]int{}
	err := w.Exec(true, func(env classmodel.Env) error {
		s, err := env.New("Shelf")
		if err != nil {
			return err
		}
		for _, c := range []struct {
			method string
			args   []wire.Value
			want   int64
		}{
			{"far", nil, 0 + 10 + 11 + 9},
			{"stash", []wire.Value{wire.Int(5)}, 5},
			{"cross", []wire.Value{wire.Int(7)}, 7},
		} {
			bases[c.method] = w.Trusted().HeapStats().Handles
			v, err := env.Call(s, c.method, c.args...)
			if err != nil {
				return err
			}
			if !v.Equal(wire.Int(c.want)) {
				return fmt.Errorf("%s = %v, want %d", c.method, v, c.want)
			}
		}
		base := w.Trusted().HeapStats().Handles
		a, err := env.Call(s, "pick", wire.Int(3))
		if err != nil {
			return err
		}
		if got := w.Trusted().HeapStats().Handles - base; got != 1 {
			return fmt.Errorf("a picked element left %d handles in its caller, want 1", got)
		}
		if bal, err := env.Call(a, "getBalance"); err != nil || !bal.Equal(wire.Int(3)) {
			return fmt.Errorf("picked getBalance = %v, %v; want 3", bal, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// far: the items list, then one handle per element read.
	var far []int
	for i := range shelfItems {
		far = append(far, i+2)
	}
	for name, want := range map[string][]int{
		"far":   far,
		"stash": {2}, "readLast": {2},
	} {
		base := bases[name]
		if name == "readLast" {
			base = bases["stash"]
		}
		var got []int
		for _, n := range seen[name] {
			got = append(got, n-base)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: handles made %v, want %v", name, got, want)
		}
	}
	for _, rt := range []*world.Runtime{w.Trusted(), w.Untrusted()} {
		if n := frameHandles(rt); n != 0 {
			t.Errorf("%s heap holds %d handles besides registry exports after all frames closed, want 0", sideOf(w, rt), n)
		}
	}
	// The crossing exported one Account into the registry, whose handle
	// lives until the untrusted proxy is collected and swept.
	if got := w.Trusted().HeapStats().Handles; got != handles+1 {
		t.Errorf("trusted heap holds %d handles after the frames closed, want %d", got, handles+1)
	}
}

// TestRelayContinuesCallerChain: on the full route a relay frame
// continues the chain of the call it runs inside, so a call back into
// the enclave finds the objects that trusted frames further up hold
// there, not in the registry. In crossBack's call back, weigh sees the
// handles crossBack holds and the two exports the crossing made, and
// none the relay made for the Shelf or the element; a cross call, whose
// call back reads the element's balance, charges no header read to
// look the element up.
func TestRelayContinuesCallerChain(t *testing.T) {
	w, seen := shelfWorld(t)
	var base int
	var crossCycles int64
	err := w.Exec(true, func(env classmodel.Env) error {
		s, err := env.New("Shelf")
		if err != nil {
			return err
		}
		base = w.Trusted().HeapStats().Handles
		if v, err := env.Call(s, "crossBack", wire.Int(4)); err != nil || !v.Equal(wire.Int(4)) {
			return fmt.Errorf("crossBack = %v, %v; want 4", v, err)
		}
		before := w.Clock().Total()
		if v, err := env.Call(s, "cross", wire.Int(7)); err != nil || !v.Equal(wire.Int(7)) {
			return fmt.Errorf("cross = %v, %v; want 7", v, err)
		}
		crossCycles = w.Clock().Total() - before
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// crossBack's items list, element and Echo proxy, and the exports of
	// the Shelf and the element; 7 when the relay resolved both in the
	// registry.
	if got := seen["weigh"]; len(got) != 1 || got[0]-base != 5 {
		t.Errorf("weigh ran with %v trusted handles, %d before crossBack; want 5 more", got, base)
	}
	// 34,280 when the relay frame started a chain of its own and found
	// the element through the registry.
	if crossCycles != 34264 {
		t.Errorf("cross charged %d cycles, want 34264", crossCycles)
	}
}
