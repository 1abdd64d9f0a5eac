package demo

import (
	"reflect"
	"testing"

	"montsalvat/internal/classmodel"
)

func TestBankProgramValidates(t *testing.T) {
	p, err := BankProgram()
	if err != nil {
		t.Fatal(err)
	}
	if err := classmodel.AddBuiltins(p); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBankProgramShape(t *testing.T) {
	p := MustBankProgram()
	ann := map[string]classmodel.Annotation{}
	for _, c := range p.Classes() {
		ann[c.Name] = c.Ann
	}
	want := map[string]classmodel.Annotation{
		Account: classmodel.Trusted, AccountRegistry: classmodel.Trusted,
		Main: classmodel.Untrusted, Person: classmodel.Untrusted,
	}
	if !reflect.DeepEqual(ann, want) {
		t.Fatalf("annotations = %v, want %v", ann, want)
	}
	if p.MainClass != Main {
		t.Fatalf("MainClass = %q", p.MainClass)
	}
	// Listing 1 surface.
	acct, _ := p.Class(Account)
	for _, m := range []string{classmodel.CtorName, "updateBalance", "getBalance", "getOwner"} {
		if _, ok := acct.Method(m); !ok {
			t.Fatalf("Account missing %s", m)
		}
	}
	person, _ := p.Class(Person)
	for _, m := range []string{classmodel.CtorName, "getAccount", "transfer"} {
		if _, ok := person.Method(m); !ok {
			t.Fatalf("Person missing %s", m)
		}
	}
	// Encapsulation: all fields private.
	for _, c := range p.Classes() {
		for _, f := range c.Fields {
			if f.Public {
				t.Fatalf("%s.%s is public", c.Name, f.Name)
			}
		}
	}
}

func TestMustBankProgramFresh(t *testing.T) {
	p1 := MustBankProgram()
	p2 := MustBankProgram()
	c1, _ := p1.Class(Account)
	if err := c1.AddField(classmodel.Field{Name: "extra", Kind: classmodel.FieldInt}); err != nil {
		t.Fatal(err)
	}
	c2, _ := p2.Class(Account)
	if _, ok := c2.Field("extra"); ok {
		t.Fatal("programs share class instances")
	}
}
