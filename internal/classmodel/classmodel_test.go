package classmodel

import (
	"slices"
	"strings"
	"testing"

	"montsalvat/internal/wire"
)

func TestAnnotationString(t *testing.T) {
	tests := []struct {
		ann  Annotation
		want string
	}{
		{Neutral, "@Neutral"},
		{Trusted, "@Trusted"},
		{Untrusted, "@Untrusted"},
	}
	for _, tt := range tests {
		if got := tt.ann.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.ann, got, tt.want)
		}
	}
}

func TestAddFieldValidation(t *testing.T) {
	c := NewClass("C", Neutral)
	if err := c.AddField(Field{Name: "x", Kind: FieldInt}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddField(Field{Name: "x", Kind: FieldFloat}); err == nil {
		t.Fatal("duplicate field accepted")
	}
	if err := c.AddField(Field{Name: "r", Kind: FieldRef}); err == nil {
		t.Fatal("ref field without class accepted")
	}
}

func TestAddMethodValidation(t *testing.T) {
	c := NewClass("C", Neutral)
	if err := c.AddMethod(&Method{Name: "m", Public: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddMethod(&Method{Name: "m"}); err == nil {
		t.Fatal("duplicate method accepted")
	}
	if err := c.AddMethod(&Method{Name: CtorName, Static: true}); err == nil {
		t.Fatal("static constructor accepted")
	}
	if err := c.AddMethod(&Method{Name: StaticInitName, Static: false}); err == nil {
		t.Fatal("non-static <clinit> accepted")
	}
	if err := c.AddMethod(nil); err == nil {
		t.Fatal("nil method accepted")
	}
}

func TestMethodLookup(t *testing.T) {
	c := NewClass("C", Trusted)
	want := &Method{Name: "doIt", Public: true}
	if err := c.AddMethod(want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Method("doIt")
	if !ok || got != want {
		t.Fatalf("Method(doIt) = %v, %v", got, ok)
	}
	if _, ok := c.Method("nope"); ok {
		t.Fatal("found nonexistent method")
	}
}

func TestLayoutOf(t *testing.T) {
	c := NewClass("C", Trusted)
	fields := []Field{
		{Name: "a", Kind: FieldInt},
		{Name: "s", Kind: FieldString},
		{Name: "b", Kind: FieldFloat},
		{Name: "r", Kind: FieldRef, ClassName: "Other"},
		{Name: "v", Kind: FieldValue},
	}
	for _, f := range fields {
		if err := c.AddField(f); err != nil {
			t.Fatal(err)
		}
	}
	l := LayoutOf(c)
	if l.NumRefs != 3 {
		t.Fatalf("NumRefs = %d, want 3", l.NumRefs)
	}
	if l.DataBytes != 16 {
		t.Fatalf("DataBytes = %d, want 16", l.DataBytes)
	}
	// a and b at data offsets 0 and 8; s, r and v in ref slots 0, 1, 2.
	if want := []int{0, 0, 8, 1, 2}; !slices.Equal(l.Slot, want) {
		t.Fatalf("Slot = %v, want %v", l.Slot, want)
	}
}

func buildValidProgram(t *testing.T) *Program {
	t.Helper()
	p := NewProgram()

	acct := NewClass("Account", Trusted)
	if err := acct.AddField(Field{Name: "balance", Kind: FieldInt}); err != nil {
		t.Fatal(err)
	}
	if err := acct.AddMethod(&Method{Name: CtorName, Public: true, Params: []Param{{Name: "b", Kind: wire.KindInt}}}); err != nil {
		t.Fatal(err)
	}
	if err := acct.AddMethod(&Method{Name: "update", Public: true, Params: []Param{{Name: "v", Kind: wire.KindInt}}}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(acct); err != nil {
		t.Fatal(err)
	}

	mainC := NewClass("Main", Untrusted)
	if err := mainC.AddMethod(&Method{
		Name:      MainMethodName,
		Static:    true,
		Public:    true,
		Calls:     []MethodRef{{Class: "Account", Method: "update"}},
		Allocates: []string{"Account"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(mainC); err != nil {
		t.Fatal(err)
	}
	p.MainClass = "Main"
	return p
}

func TestValidateHappyPath(t *testing.T) {
	p := buildValidProgram(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(p *Program) error
		wantSub string
	}{
		{
			name: "missing main class",
			mutate: func(p *Program) error {
				p.MainClass = "Ghost"
				return nil
			},
			wantSub: "main class",
		},
		{
			name: "missing main method",
			mutate: func(p *Program) error {
				p.MainMethod = "ghost"
				return nil
			},
			wantSub: "main method",
		},
		{
			name: "non-static main",
			mutate: func(p *Program) error {
				c, _ := p.Class("Main")
				c.Methods[0].Static = false
				return nil
			},
			wantSub: "must be static",
		},
		{
			name: "public field on annotated class",
			mutate: func(p *Program) error {
				c, _ := p.Class("Account")
				return c.AddField(Field{Name: "leak", Kind: FieldInt, Public: true})
			},
			wantSub: "private",
		},
		{
			name: "unresolved call edge",
			mutate: func(p *Program) error {
				c, _ := p.Class("Main")
				c.Methods[0].Calls = append(c.Methods[0].Calls, MethodRef{Class: "Nope", Method: "x"})
				return nil
			},
			wantSub: "unresolved",
		},
		{
			name: "unknown allocation",
			mutate: func(p *Program) error {
				c, _ := p.Class("Main")
				c.Methods[0].Allocates = append(c.Methods[0].Allocates, "Ghost")
				return nil
			},
			wantSub: "unknown class",
		},
		{
			name: "unknown ref field type",
			mutate: func(p *Program) error {
				c, _ := p.Class("Main")
				return c.AddField(Field{Name: "r", Kind: FieldRef, ClassName: "Ghost"})
			},
			wantSub: "unknown class",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := buildValidProgram(t)
			if err := tt.mutate(p); err != nil {
				t.Fatalf("mutate: %v", err)
			}
			err := p.Validate()
			if err == nil {
				t.Fatal("Validate accepted invalid program")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tt.wantSub)
			}
		})
	}
}

func TestPublicFieldAllowedOnNeutral(t *testing.T) {
	p := buildValidProgram(t)
	util := NewClass("Util", Neutral)
	if err := util.AddField(Field{Name: "shared", Kind: FieldInt, Public: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(util); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate rejected public field on neutral class: %v", err)
	}
}

func TestByAnnotation(t *testing.T) {
	p := buildValidProgram(t)
	util := NewClass("Util", Neutral)
	if err := p.AddClass(util); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]Annotation{"Account": Trusted, "Main": Untrusted, "Util": Neutral} {
		if c, ok := p.Class(name); !ok || c.Ann != want {
			t.Fatalf("class %s: annotation %v, want %v", name, c.Ann, want)
		}
	}
	if n := len(p.Classes()); n != 3 {
		t.Fatalf("program has %d classes, want 3", n)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := buildValidProgram(t)
	cp := p.Clone()
	// Mutate the clone; the original must be unaffected.
	cc, _ := cp.Class("Account")
	cc.Methods[0].Calls = append(cc.Methods[0].Calls, MethodRef{Class: "Main", Method: MainMethodName})
	if err := cc.AddField(Field{Name: "extra", Kind: FieldInt}); err != nil {
		t.Fatal(err)
	}

	oc, _ := p.Class("Account")
	if len(oc.Methods[0].Calls) != 0 {
		t.Fatal("clone shares Calls slice with original")
	}
	if _, ok := oc.Field("extra"); ok {
		t.Fatal("clone shares Fields with original")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("original corrupted by clone mutation: %v", err)
	}
}

func TestDuplicateClassRejected(t *testing.T) {
	p := NewProgram()
	if err := p.AddClass(NewClass("C", Neutral)); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(NewClass("C", Trusted)); err == nil {
		t.Fatal("duplicate class accepted")
	}
}

func TestBuiltins(t *testing.T) {
	p := NewProgram()
	if err := AddBuiltins(p); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{BuiltinString, BuiltinBytes, BuiltinBlob, BuiltinList, BuiltinArray} {
		c, ok := p.Class(name)
		if !ok {
			t.Fatalf("builtin %s not registered", name)
		}
		if c.Ann != Neutral {
			t.Fatalf("builtin %s annotation = %v, want Neutral", name, c.Ann)
		}
		if !IsBuiltin(name) {
			t.Fatalf("IsBuiltin(%s) = false", name)
		}
	}
	if IsBuiltin("Account") {
		t.Fatal("IsBuiltin(Account) = true")
	}
	// Idempotent.
	if err := AddBuiltins(p); err != nil {
		t.Fatalf("second AddBuiltins: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("builtins do not validate: %v", err)
	}
	// List has the expected surface.
	list, _ := p.Class(BuiltinList)
	for _, m := range []string{CtorName, "add", "get", "set", "size"} {
		if _, ok := list.Method(m); !ok {
			t.Fatalf("List missing method %s", m)
		}
	}
}

func TestFieldKindStrings(t *testing.T) {
	if FieldInt.String() != "int" || FieldString.String() != "String" {
		t.Fatal("FieldKind.String broken")
	}
	if !FieldRef.IsRefLike() || FieldInt.IsRefLike() {
		t.Fatal("IsRefLike broken")
	}
}
