package isolate

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"montsalvat/internal/cycles"
	"montsalvat/internal/epc"
	"montsalvat/internal/heap"
	"montsalvat/internal/mee"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/wire"
)

// objHeaderBytes is the size of a heap object header.
const objHeaderBytes = 16

// headerCounter counts, per address, the header reads a heap makes
// while on is set: Backend reads of exactly one header's length. The
// test's payloads are never that long, so no data read is counted.
type headerCounter struct {
	on    bool
	reads map[heap.Addr]int
}

// countingMemory is plain memory that reports its header reads.
type countingMemory struct {
	*heap.PlainMemory
	c *headerCounter
}

func (m countingMemory) Read(off int, dst []byte) error {
	if m.c.on && len(dst) == objHeaderBytes {
		m.c.reads[heap.Addr(off)]++
	}
	return m.PlainMemory.Read(off, dst)
}

// countingIsolate is testIsolate over counting memory, large enough that
// no operation below collects.
func countingIsolate(t *testing.T) (*Isolate, *headerCounter) {
	t.Helper()
	c := &headerCounter{}
	h, err := heap.New(heap.Config{InitialSemi: 1 << 20, MaxSemi: 1 << 20}, func(size int) (heap.Backend, error) {
		return countingMemory{PlainMemory: heap.NewPlainMemory(size), c: c}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return accountIsolate(t, h), c
}

// TestOneHeaderReadPerObject pins that an operation reads the header of
// each object it touches exactly once. The only exceptions are the ones
// an allocation inside the operation forces: an object viewed before it
// is viewed again after it, because the allocation may have moved it.
func TestOneHeaderReadPerObject(t *testing.T) {
	iso, c := countingIsolate(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	newAccount := func(hash int64) heap.Handle {
		t.Helper()
		h, err := iso.NewObject("Account", hash)
		must(err)
		return h
	}
	addr := func(h heap.Handle) heap.Addr {
		t.Helper()
		a, err := iso.heap.Deref(h)
		must(err)
		return a
	}
	// slot reads reference slot i of the object behind h.
	slot := func(h heap.Handle, i int) heap.Addr {
		t.Helper()
		o, err := iso.view(h)
		must(err)
		a, err := iso.heap.GetRef(o, i)
		must(err)
		return a
	}
	fieldSlot := func(field string) int {
		info := iso.classes["Account"]
		for i, f := range info.decl.Fields {
			if f.Name == field {
				return info.layout.Slot[i]
			}
		}
		t.Fatalf("Account has no field %s", field)
		return 0
	}

	a, b, e0, e1 := newAccount(1), newAccount(2), newAccount(3), newAccount(4)
	must(iso.SetFieldData(a, "owner", wire.Str("alice")))
	must(iso.SetFieldData(a, "raw", wire.Bytes([]byte{1, 2, 3})))
	must(iso.SetFieldData(a, "tags", wire.List(wire.Int(7))))
	must(iso.SetFieldRef(a, "linked", b))
	must(iso.SetFieldScalar(a, "balance", wire.Int(5)))
	list, err := iso.NewList()
	must(err)
	must(iso.ListAdd(list, e0))
	must(iso.ListAdd(list, e1))
	full, err := iso.NewList()
	must(err)
	for _, e := range []heap.Handle{e0, e1, e0, e1} {
		must(iso.ListAdd(full, e))
	}

	fullArr := slot(full, 0)
	var made heap.Handle // the handle a case returns
	for _, tc := range []struct {
		name string
		run  func() error
		// want maps each object the operation touches to its header
		// reads; it is evaluated after the operation, uncounted.
		want func() map[heap.Addr]int
	}{
		{"NewObject", func() (err error) { made, err = iso.NewObject("Account", 9); return err },
			func() map[heap.Addr]int { return map[heap.Addr]int{addr(made): 1} }},
		{"NewString", func() (err error) { made, err = iso.NewString("a string"); return err },
			func() map[heap.Addr]int { return map[heap.Addr]int{addr(made): 1} }},
		{"ListGet", func() error {
			h, hash, cid, err := iso.ListGet(list, 1)
			if err == nil && (hash != 4 || cid != 1) {
				err = fmt.Errorf("ListGet = hash %d, class %d", hash, cid)
			}
			made = h
			return err
		}, func() map[heap.Addr]int {
			return map[heap.Addr]int{addr(list): 1, slot(list, 0): 1, addr(e1): 1}
		}},
		{"ListAdd", func() error { return iso.ListAdd(list, b) },
			func() map[heap.Addr]int { return map[heap.Addr]int{addr(list): 1, slot(list, 0): 1, addr(b): 1} }},
		{"ListSet", func() error { return iso.ListSet(list, 0, e1) },
			func() map[heap.Addr]int { return map[heap.Addr]int{addr(list): 1, slot(list, 0): 1, addr(e1): 1} }},
		{"ListSize", func() error { _, err := iso.ListSize(list); return err },
			func() map[heap.Addr]int { return map[heap.Addr]int{addr(list): 1} }},
		{"GetField/scalar", func() error { _, err := iso.GetField(a, "balance"); return err },
			func() map[heap.Addr]int { return map[heap.Addr]int{addr(a): 1} }},
		{"GetField/String", func() error { _, err := iso.GetField(a, "owner"); return err },
			func() map[heap.Addr]int { return map[heap.Addr]int{addr(a): 1, slot(a, fieldSlot("owner")): 1} }},
		{"GetField/Bytes", func() error { _, err := iso.GetField(a, "raw"); return err },
			func() map[heap.Addr]int { return map[heap.Addr]int{addr(a): 1, slot(a, fieldSlot("raw")): 1} }},
		{"GetField/value", func() error { _, err := iso.GetField(a, "tags"); return err },
			func() map[heap.Addr]int { return map[heap.Addr]int{addr(a): 1, slot(a, fieldSlot("tags")): 1} }},
		{"GetField/ref", func() error { _, err := iso.GetField(a, "linked"); return err },
			func() map[heap.Addr]int { return map[heap.Addr]int{addr(a): 1, addr(b): 1} }},
		{"GetFieldRef", func() (err error) { _, made, err = iso.GetFieldRef(a, "linked"); return err },
			func() map[heap.Addr]int { return map[heap.Addr]int{addr(a): 1, addr(b): 1} }},
		{"SetFieldScalar", func() error { return iso.SetFieldScalar(a, "balance", wire.Int(6)) },
			func() map[heap.Addr]int { return map[heap.Addr]int{addr(a): 1} }},
		{"SetFieldRef", func() error { return iso.SetFieldRef(a, "linked", e0) },
			func() map[heap.Addr]int { return map[heap.Addr]int{addr(a): 1, addr(e0): 1} }},
		// The receiver is viewed to find the field, then again after the
		// new child's allocation.
		{"SetFieldData", func() error { return iso.SetFieldData(a, "owner", wire.Str("bob")) },
			func() map[heap.Addr]int { return map[heap.Addr]int{addr(a): 2, slot(a, fieldSlot("owner")): 1} }},
		// A full List grows: the List and its old array are viewed on
		// each side of the new array's allocation, the new array once,
		// each copied slot's element once per slot (e0 and e1 fill two
		// each), and the added element once.
		{"ListAdd/grow", func() error { return iso.ListAdd(full, b) }, func() map[heap.Addr]int {
			return map[heap.Addr]int{addr(full): 2, fullArr: 2, slot(full, 0): 1, addr(e0): 2, addr(e1): 2, addr(b): 1}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c.reads, c.on = map[heap.Addr]int{}, true
			err := tc.run()
			c.on = false
			if err != nil {
				t.Fatal(err)
			}
			if got, want := c.reads, tc.want(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("header reads by address %v, want %v", got, want)
			}
		})
	}
	if iso.heap.Stats().Collections != 0 {
		t.Fatal("an operation collected: the addresses above are stale")
	}
}

// tamperIsolate is an isolate on an EPC-backed heap whose memories the
// test can tamper with, as a physical attacker flipping DRAM bits would.
func tamperIsolate(t *testing.T) (*Isolate, *[]*epc.Memory) {
	t.Helper()
	eng, err := mee.NewWithKey(bytes.Repeat([]byte{5}, 32))
	if err != nil {
		t.Fatal(err)
	}
	clk := cycles.New(simcfg.CPUHz)
	var mems []*epc.Memory
	h, err := heap.New(heap.Config{InitialSemi: 1 << 16, MaxSemi: 1 << 16}, func(size int) (heap.Backend, error) {
		m, err := epc.New(size, nil, eng, clk)
		mems = append(mems, m)
		return m, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return accountIsolate(t, h), &mems
}

// A view never outlives its heap call: a header or reference slot
// tampered with after one call has validated it fails the next call on
// that object with mee.ErrIntegrity.
func TestTamperBetweenCallsFailsIntegrity(t *testing.T) {
	calls := map[string]func(iso *Isolate, obj, list heap.Handle) error{
		"GetField":       func(iso *Isolate, obj, _ heap.Handle) error { _, err := iso.GetField(obj, "balance"); return err },
		"GetFieldRef":    func(iso *Isolate, obj, _ heap.Handle) error { _, _, err := iso.GetFieldRef(obj, "linked"); return err },
		"SetFieldScalar": func(iso *Isolate, obj, _ heap.Handle) error { return iso.SetFieldScalar(obj, "balance", wire.Int(1)) },
		"SetFieldData":   func(iso *Isolate, obj, _ heap.Handle) error { return iso.SetFieldData(obj, "owner", wire.Str("x")) },
		"HashOf":         func(iso *Isolate, obj, _ heap.Handle) error { _, err := iso.HashOf(obj); return err },
		"ListAdd":        func(iso *Isolate, obj, list heap.Handle) error { return iso.ListAdd(list, obj) },
		"ListSet":        func(iso *Isolate, obj, list heap.Handle) error { return iso.ListSet(list, 0, obj) },
		"NewWeak":        func(iso *Isolate, obj, _ heap.Handle) error { return iso.NewWeak(obj, 1) },
	}
	for name, call := range calls {
		t.Run("header/"+name, func(t *testing.T) {
			iso, mems := tamperIsolate(t)
			obj, err := iso.NewObject("Account", 1)
			if err != nil {
				t.Fatal(err)
			}
			list, err := iso.NewList()
			if err != nil {
				t.Fatal(err)
			}
			if err := iso.ListAdd(list, obj); err != nil {
				t.Fatal(err)
			}
			// The first call validates the header; the second must not
			// trust that.
			if _, err := iso.GetField(obj, "balance"); err != nil {
				t.Fatal(err)
			}
			a, err := iso.heap.Deref(obj)
			if err != nil {
				t.Fatal(err)
			}
			if err := (*mems)[0].Tamper(int(a)); err != nil {
				t.Fatal(err)
			}
			if err := call(iso, obj, list); !errors.Is(err, mee.ErrIntegrity) {
				t.Fatalf("%s after the header was tampered: err = %v, want mee.ErrIntegrity", name, err)
			}
		})
	}

	t.Run("slot", func(t *testing.T) {
		iso, mems := tamperIsolate(t)
		const n = 16 // the array grows to 16 slots, slot 10 lies a line past its header
		var elems []heap.Handle
		for i := 0; i < n; i++ {
			e, err := iso.NewObject("Account", int64(10+i))
			if err != nil {
				t.Fatal(err)
			}
			elems = append(elems, e)
		}
		list, err := iso.NewList()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range elems {
			if err := iso.ListAdd(list, e); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, _, err := iso.ListGet(list, 10); err != nil {
			t.Fatal(err)
		}
		lo, err := iso.view(list)
		if err != nil {
			t.Fatal(err)
		}
		arr, err := iso.heap.GetRef(lo, 0)
		if err != nil {
			t.Fatal(err)
		}
		slotOff := int(arr) + objHeaderBytes + 10*8
		if slotOff/mee.LineBytes == (int(arr)+objHeaderBytes-1)/mee.LineBytes {
			t.Fatal("slot 10 shares a line with the array header")
		}
		if err := (*mems)[0].Tamper(slotOff); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := iso.ListGet(list, 10); !errors.Is(err, mee.ErrIntegrity) {
			t.Fatalf("ListGet of the tampered slot: err = %v, want mee.ErrIntegrity", err)
		}
		if err := iso.ListSet(list, 10, elems[0]); !errors.Is(err, mee.ErrIntegrity) {
			t.Fatalf("ListSet of the tampered slot: err = %v, want mee.ErrIntegrity", err)
		}
		// Slots on untouched lines still read.
		if _, hash, _, err := iso.ListGet(list, 0); err != nil || hash != 10 {
			t.Fatalf("ListGet(0) = hash %d, %v", hash, err)
		}
	})
}
