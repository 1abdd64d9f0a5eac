package isolate

import (
	"bytes"
	"errors"
	"strconv"
	"testing"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/heap"
	"montsalvat/internal/wire"
)

// testIsolate builds an isolate with an Account-like class registered.
func testIsolate(t *testing.T) *Isolate {
	t.Helper()
	h, err := heap.NewPlain(heap.Config{InitialSemi: 1 << 16, MaxSemi: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	return accountIsolate(t, h)
}

// accountIsolate builds an isolate over h with the Account class
// registered.
func accountIsolate(t *testing.T, h *heap.Heap) *Isolate {
	t.Helper()
	var hashCounter int64
	iso, err := New(h, func() int64 { hashCounter++; return hashCounter })
	if err != nil {
		t.Fatal(err)
	}

	acct := classmodel.NewClass("Account", classmodel.Trusted)
	for _, f := range []classmodel.Field{
		{Name: "owner", Kind: classmodel.FieldString},
		{Name: "balance", Kind: classmodel.FieldInt},
		{Name: "rate", Kind: classmodel.FieldFloat},
		{Name: "open", Kind: classmodel.FieldBool},
		{Name: "tags", Kind: classmodel.FieldValue},
		{Name: "raw", Kind: classmodel.FieldBytes},
		{Name: "linked", Kind: classmodel.FieldRef, ClassName: "Account"},
	} {
		if err := acct.AddField(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := iso.RegisterClass(acct, 1); err != nil {
		t.Fatal(err)
	}
	return iso
}

func TestNewObjectHashAndClass(t *testing.T) {
	iso := testIsolate(t)
	h, err := iso.NewObject("Account", 777)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := iso.HashOf(h)
	if err != nil || hash != 777 {
		t.Fatalf("HashOf = %d, %v; want 777", hash, err)
	}
	o, err := iso.view(h)
	if err != nil {
		t.Fatal(err)
	}
	name, err := iso.ClassName(o.ClassID())
	if err != nil || name != "Account" {
		t.Fatalf("ClassName = %q, %v", name, err)
	}
}

func TestNewObjectUnknownClass(t *testing.T) {
	iso := testIsolate(t)
	if _, err := iso.NewObject("Ghost", 1); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("err = %v, want ErrUnknownClass", err)
	}
}

func TestScalarFields(t *testing.T) {
	iso := testIsolate(t)
	h, err := iso.NewObject("Account", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := iso.SetFieldScalar(h, "balance", wire.Int(-250)); err != nil {
		t.Fatal(err)
	}
	if err := iso.SetFieldScalar(h, "rate", wire.Float(1.75)); err != nil {
		t.Fatal(err)
	}
	if err := iso.SetFieldScalar(h, "open", wire.Bool(true)); err != nil {
		t.Fatal(err)
	}
	if v, err := iso.GetField(h, "balance"); err != nil || !v.Equal(wire.Int(-250)) {
		t.Fatalf("balance = %v, %v", v, err)
	}
	if v, err := iso.GetField(h, "rate"); err != nil || !v.Equal(wire.Float(1.75)) {
		t.Fatalf("rate = %v, %v", v, err)
	}
	if v, err := iso.GetField(h, "open"); err != nil || !v.Equal(wire.Bool(true)) {
		t.Fatalf("open = %v, %v", v, err)
	}
}

func TestScalarKindMismatch(t *testing.T) {
	iso := testIsolate(t)
	h, _ := iso.NewObject("Account", 1)
	if err := iso.SetFieldScalar(h, "balance", wire.Str("x")); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("err = %v, want ErrKindMismatch", err)
	}
	if err := iso.SetFieldScalar(h, "owner", wire.Str("x")); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("string via SetFieldScalar: err = %v, want ErrKindMismatch", err)
	}
	if err := iso.SetFieldScalar(h, "ghost", wire.Int(1)); !errors.Is(err, ErrUnknownField) {
		t.Fatalf("err = %v, want ErrUnknownField", err)
	}
}

func TestStringField(t *testing.T) {
	iso := testIsolate(t)
	h, _ := iso.NewObject("Account", 1)
	if v, err := iso.GetField(h, "owner"); err != nil || !v.IsNull() {
		t.Fatalf("unset string field = %v, %v; want null", v, err)
	}
	if err := iso.SetFieldData(h, "owner", wire.Str("Alice")); err != nil {
		t.Fatal(err)
	}
	if v, err := iso.GetField(h, "owner"); err != nil || !v.Equal(wire.Str("Alice")) {
		t.Fatalf("owner = %v, %v; want Alice", v, err)
	}
	// Overwrite.
	if err := iso.SetFieldData(h, "owner", wire.Str("Bob with a much longer name")); err != nil {
		t.Fatal(err)
	}
	if v, _ := iso.GetField(h, "owner"); !v.Equal(wire.Str("Bob with a much longer name")) {
		t.Fatalf("owner after overwrite = %v", v)
	}
}

func TestBytesAndValueFields(t *testing.T) {
	iso := testIsolate(t)
	h, _ := iso.NewObject("Account", 1)
	raw := []byte{0, 1, 2, 3, 255}
	if err := iso.SetFieldData(h, "raw", wire.Bytes(raw)); err != nil {
		t.Fatal(err)
	}
	v, err := iso.GetField(h, "raw")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := v.AsBytes()
	if !bytes.Equal(got, raw) {
		t.Fatalf("raw = %v, want %v", got, raw)
	}

	tags := wire.List(wire.Str("vip"), wire.Int(3))
	if err := iso.SetFieldData(h, "tags", tags); err != nil {
		t.Fatal(err)
	}
	if v, err := iso.GetField(h, "tags"); err != nil || !v.Equal(tags) {
		t.Fatalf("tags = %v, %v", v, err)
	}
}

func TestRefField(t *testing.T) {
	iso := testIsolate(t)
	a, _ := iso.NewObject("Account", 10)
	b, _ := iso.NewObject("Account", 20)
	if err := iso.SetFieldRef(a, "linked", b); err != nil {
		t.Fatal(err)
	}
	v, err := iso.GetField(a, "linked")
	if err != nil {
		t.Fatal(err)
	}
	class, hash, ok := v.AsRef()
	if !ok || class != "Account" || hash != 20 {
		t.Fatalf("linked = %v", v)
	}
	// Handle access.
	rv, bh, err := iso.GetFieldRef(a, "linked")
	if err != nil || bh == 0 || !rv.Equal(v) {
		t.Fatalf("GetFieldRef = %v, %v, %v", rv, bh, err)
	}
	if got, _ := iso.HashOf(bh); got != 20 {
		t.Fatalf("target hash = %d, want 20", got)
	}
	// Null out.
	if err := iso.SetFieldRef(a, "linked", 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := iso.GetField(a, "linked"); !v.IsNull() {
		t.Fatalf("cleared ref = %v", v)
	}
	if rv, bh, err := iso.GetFieldRef(a, "linked"); err != nil || bh != 0 || !rv.IsNull() {
		t.Fatalf("cleared ref = %v, handle %v, %v", rv, bh, err)
	}
}

func TestFieldsSurviveGC(t *testing.T) {
	iso := testIsolate(t)
	a, _ := iso.NewObject("Account", 1)
	b, _ := iso.NewObject("Account", 2)
	if err := iso.SetFieldData(a, "owner", wire.Str("Alice")); err != nil {
		t.Fatal(err)
	}
	if err := iso.SetFieldScalar(a, "balance", wire.Int(100)); err != nil {
		t.Fatal(err)
	}
	if err := iso.SetFieldRef(a, "linked", b); err != nil {
		t.Fatal(err)
	}
	if err := iso.SetFieldData(b, "owner", wire.Str("Bob")); err != nil {
		t.Fatal(err)
	}
	if err := iso.Collect(); err != nil {
		t.Fatal(err)
	}
	if v, _ := iso.GetField(a, "owner"); !v.Equal(wire.Str("Alice")) {
		t.Fatalf("owner after GC = %v", v)
	}
	if v, _ := iso.GetField(a, "balance"); !v.Equal(wire.Int(100)) {
		t.Fatalf("balance after GC = %v", v)
	}
	_, lh, err := iso.GetFieldRef(a, "linked")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := iso.GetField(lh, "owner"); !v.Equal(wire.Str("Bob")) {
		t.Fatalf("linked owner after GC = %v", v)
	}
}

func TestListOperations(t *testing.T) {
	iso := testIsolate(t)
	list, err := iso.NewList()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := iso.ListSize(list); err != nil || n != 0 {
		t.Fatalf("empty size = %d, %v", n, err)
	}
	// Grow past the initial capacity of 4.
	const count = 37
	for i := 0; i < count; i++ {
		obj, err := iso.NewObject("Account", int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		if err := iso.SetFieldScalar(obj, "balance", wire.Int(int64(i*i))); err != nil {
			t.Fatal(err)
		}
		if err := iso.ListAdd(list, obj); err != nil {
			t.Fatalf("ListAdd %d: %v", i, err)
		}
		if err := iso.Release(obj); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := iso.ListSize(list); n != count {
		t.Fatalf("size = %d, want %d", n, count)
	}
	if err := iso.Collect(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		e, hash, cid, err := iso.ListGet(list, i)
		if err != nil {
			t.Fatalf("ListGet %d: %v", i, err)
		}
		if hash != int64(100+i) || cid != 1 {
			t.Fatalf("elem %d hash = %d, class id %d", i, hash, cid)
		}
		if h, _ := iso.HashOf(e); h != hash {
			t.Fatalf("elem %d: handle's hash %d, ListGet's %d", i, h, hash)
		}
		if v, _ := iso.GetField(e, "balance"); !v.Equal(wire.Int(int64(i * i))) {
			t.Fatalf("elem %d balance = %v", i, v)
		}
		if err := iso.Release(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := iso.ListGet(list, count); !errors.Is(err, ErrIndex) {
		t.Fatalf("OOB get: err = %v, want ErrIndex", err)
	}
}

func TestListSet(t *testing.T) {
	iso := testIsolate(t)
	list, _ := iso.NewList()
	a, _ := iso.NewObject("Account", 1)
	b, _ := iso.NewObject("Account", 2)
	if err := iso.ListAdd(list, a); err != nil {
		t.Fatal(err)
	}
	if err := iso.ListSet(list, 0, b); err != nil {
		t.Fatal(err)
	}
	if _, hash, _, _ := iso.ListGet(list, 0); hash != 2 {
		t.Fatalf("after set hash = %d, want 2", hash)
	}
	if err := iso.ListSet(list, 5, b); !errors.Is(err, ErrIndex) {
		t.Fatalf("OOB set: err = %v, want ErrIndex", err)
	}
}

func TestBuiltinValues(t *testing.T) {
	iso := testIsolate(t)
	sh, err := iso.NewString("hello")
	if err != nil {
		t.Fatal(err)
	}
	if s, err := iso.StrValue(sh); err != nil || s != "hello" {
		t.Fatalf("StrValue = %q, %v", s, err)
	}
	bh, err := iso.NewBytes([]byte{9, 8})
	if err != nil {
		t.Fatal(err)
	}
	if b, err := iso.BytesValue(bh); err != nil || !bytes.Equal(b, []byte{9, 8}) {
		t.Fatalf("BytesValue = %v, %v", b, err)
	}
	v := wire.List(wire.Str("k"), wire.Int(1))
	vh, err := iso.NewBlob(v)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := iso.BlobValue(vh); err != nil || !got.Equal(v) {
		t.Fatalf("BlobValue = %v, %v", got, err)
	}
	// Type confusion is rejected.
	if _, err := iso.StrValue(bh); !errors.Is(err, ErrNotBuiltin) {
		t.Fatalf("StrValue on Bytes: err = %v, want ErrNotBuiltin", err)
	}
	if _, err := iso.ListSize(sh); !errors.Is(err, ErrNotBuiltin) {
		t.Fatalf("ListSize on String: err = %v, want ErrNotBuiltin", err)
	}
}

func TestProxyObjectHasOnlyHash(t *testing.T) {
	iso := testIsolate(t)
	proxy := classmodel.NewClass("Person", classmodel.Untrusted)
	proxy.Proxy = true
	if err := iso.RegisterClass(proxy, 2); err != nil {
		t.Fatal(err)
	}
	h, err := iso.NewObject("Person", 42)
	if err != nil {
		t.Fatal(err)
	}
	if hash, _ := iso.HashOf(h); hash != 42 {
		t.Fatalf("proxy hash = %d", hash)
	}
	if err := iso.SetFieldScalar(h, "anything", wire.Int(1)); !errors.Is(err, ErrUnknownField) {
		t.Fatalf("proxy field write: err = %v, want ErrUnknownField", err)
	}
}

func TestRegisterClassValidation(t *testing.T) {
	iso := testIsolate(t)
	if err := iso.RegisterClass(nil, 3); err == nil {
		t.Fatal("nil class accepted")
	}
	c := classmodel.NewClass("X", classmodel.Neutral)
	if err := iso.RegisterClass(c, 0); err == nil {
		t.Fatal("zero id accepted")
	}
	if err := iso.RegisterClass(c, 5); err != nil {
		t.Fatal(err)
	}
	if err := iso.RegisterClass(c, 6); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	// Builtins are silently skipped.
	b := classmodel.NewClass(classmodel.BuiltinString, classmodel.Neutral)
	if err := iso.RegisterClass(b, 7); err != nil {
		t.Fatalf("builtin registration: %v", err)
	}
}

func TestManyObjectsStress(t *testing.T) {
	iso := testIsolate(t)
	list, err := iso.NewList()
	if err != nil {
		t.Fatal(err)
	}
	// Enough data to force several collections and semispace growth.
	for i := 0; i < 500; i++ {
		obj, err := iso.NewObject("Account", int64(i))
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if err := iso.SetFieldData(obj, "owner", wire.Str("owner-"+strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := iso.ListAdd(list, obj); err != nil {
				t.Fatal(err)
			}
		}
		if err := iso.Release(obj); err != nil {
			t.Fatal(err)
		}
	}
	if err := iso.Collect(); err != nil {
		t.Fatal(err)
	}
	n, err := iso.ListSize(list)
	if err != nil {
		t.Fatal(err)
	}
	if n != 167 {
		t.Fatalf("kept = %d, want 167", n)
	}
	for i := 0; i < n; i++ {
		e, _, _, err := iso.ListGet(list, i)
		if err != nil {
			t.Fatal(err)
		}
		want := wire.Str("owner-" + strconv.Itoa(i*3))
		if v, _ := iso.GetField(e, "owner"); !v.Equal(want) {
			t.Fatalf("elem %d owner = %v, want %v", i, v, want)
		}
		if err := iso.Release(e); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFieldKindMisuse(t *testing.T) {
	iso := testIsolate(t)
	a, _ := iso.NewObject("Account", 1)
	b, _ := iso.NewObject("Account", 2)
	// SetFieldRef on a non-ref field.
	if err := iso.SetFieldRef(a, "balance", b); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("SetFieldRef on int: %v", err)
	}
	// SetFieldData on a scalar field.
	if err := iso.SetFieldData(a, "balance", wire.Int(1)); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("SetFieldData on int: %v", err)
	}
	// SetFieldData with the wrong payload kind.
	if err := iso.SetFieldData(a, "owner", wire.Int(1)); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("SetFieldData int into String: %v", err)
	}
	if err := iso.SetFieldData(a, "raw", wire.Str("x")); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("SetFieldData str into bytes: %v", err)
	}
	// GetFieldRef on a non-ref field reads the value and hands out no
	// handle.
	if v, hd, err := iso.GetFieldRef(a, "balance"); err != nil || hd != 0 || !v.Equal(wire.Int(0)) {
		t.Fatalf("GetFieldRef on int = %v, handle %v, %v", v, hd, err)
	}
	// Unknown fields.
	if _, err := iso.GetField(a, "ghost"); !errors.Is(err, ErrUnknownField) {
		t.Fatalf("GetField ghost: %v", err)
	}
}

func TestBuiltinFieldAccessRejected(t *testing.T) {
	iso := testIsolate(t)
	s, _ := iso.NewString("str")
	// Builtins have no declared fields.
	if _, err := iso.GetField(s, "anything"); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("GetField on String: %v", err)
	}
}

func TestNewIsolateValidation(t *testing.T) {
	h, err := heap.NewPlain(heap.Config{InitialSemi: 1 << 14, MaxSemi: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, func() int64 { return 1 }); err == nil {
		t.Fatal("nil heap accepted")
	}
	if _, err := New(h, nil); err == nil {
		t.Fatal("nil hash source accepted")
	}
}

func TestListAddRejectsNonList(t *testing.T) {
	iso := testIsolate(t)
	a, _ := iso.NewObject("Account", 1)
	b, _ := iso.NewObject("Account", 2)
	if err := iso.ListAdd(a, b); !errors.Is(err, ErrNotBuiltin) {
		t.Fatalf("ListAdd on Account: %v", err)
	}
	if _, _, _, err := iso.ListGet(a, 0); !errors.Is(err, ErrNotBuiltin) {
		t.Fatalf("ListGet on Account: %v", err)
	}
}

// GetField reads any field as a wire value, as GetFieldRef does, without
// taking a handle to a referenced object.
func (iso *Isolate) GetField(h heap.Handle, field string) (wire.Value, error) {
	v, _, err := iso.getField(h, field, false)
	return v, err
}
