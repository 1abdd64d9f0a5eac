package transform

import (
	"strings"
	"testing"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/demo"
	"montsalvat/internal/edl"
	"montsalvat/internal/wire"
)

func partitionBank(t *testing.T) *Result {
	t.Helper()
	p := demo.MustBankProgram()
	if err := classmodel.AddBuiltins(p); err != nil {
		t.Fatal(err)
	}
	res, err := Partition(p)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	return res
}

func TestSetsContainExpectedClasses(t *testing.T) {
	res := partitionBank(t)

	// Trusted set: concrete Account/AccountRegistry, proxy Person/Main,
	// neutral builtins.
	for _, tc := range []struct {
		class string
		proxy bool
	}{
		{demo.Account, false},
		{demo.AccountRegistry, false},
		{demo.Person, true},
		{demo.Main, true},
	} {
		c, ok := res.Trusted.Class(tc.class)
		if !ok {
			t.Fatalf("trusted set missing %s", tc.class)
		}
		if c.Proxy != tc.proxy {
			t.Errorf("trusted set %s proxy = %v, want %v", tc.class, c.Proxy, tc.proxy)
		}
	}
	// Untrusted set: the converse.
	for _, tc := range []struct {
		class string
		proxy bool
	}{
		{demo.Account, true},
		{demo.AccountRegistry, true},
		{demo.Person, false},
		{demo.Main, false},
	} {
		c, ok := res.Untrusted.Class(tc.class)
		if !ok {
			t.Fatalf("untrusted set missing %s", tc.class)
		}
		if c.Proxy != tc.proxy {
			t.Errorf("untrusted set %s proxy = %v, want %v", tc.class, c.Proxy, tc.proxy)
		}
	}
	// Neutral builtins appear unchanged in both.
	for _, set := range []*classmodel.Program{res.Trusted, res.Untrusted} {
		c, ok := set.Class(classmodel.BuiltinList)
		if !ok || c.Proxy {
			t.Fatal("builtin List missing or proxied")
		}
	}
	// Main entry point stays in the untrusted set only.
	if res.Untrusted.MainClass != demo.Main {
		t.Fatalf("untrusted main = %q", res.Untrusted.MainClass)
	}
	if res.Trusted.MainClass != "" {
		t.Fatalf("trusted set has main %q", res.Trusted.MainClass)
	}
}

func TestRelaysInjected(t *testing.T) {
	res := partitionBank(t)
	acct, _ := res.Trusted.Class(demo.Account)
	relay, ok := acct.Method(RelayName("updateBalance"))
	if !ok {
		t.Fatal("relay$updateBalance missing")
	}
	if !relay.Relay || !relay.Static || !relay.EntryPoint {
		t.Fatalf("relay flags wrong: %+v", relay)
	}
	if relay.RelayFor != "updateBalance" {
		t.Fatalf("RelayFor = %q", relay.RelayFor)
	}
	// First parameter is the proxy hash; the rest forward the method's.
	if len(relay.Params) != 2 || relay.Params[0].Name != "hash" || relay.Params[0].Kind != wire.KindInt {
		t.Fatalf("relay params = %v", relay.Params)
	}
	// The relay keeps the wrapped method reachable (Fig. 2).
	if len(relay.Calls) != 1 || relay.Calls[0] != (classmodel.MethodRef{Class: demo.Account, Method: "updateBalance"}) {
		t.Fatalf("relay calls = %v", relay.Calls)
	}
	// Constructor relays also allocate the class.
	ctorRelay, ok := acct.Method(RelayName(classmodel.CtorName))
	if !ok {
		t.Fatal("constructor relay missing")
	}
	if len(ctorRelay.Allocates) != 1 || ctorRelay.Allocates[0] != demo.Account {
		t.Fatalf("ctor relay allocates = %v", ctorRelay.Allocates)
	}
}

func TestProxiesStripped(t *testing.T) {
	res := partitionBank(t)
	person, _ := res.Trusted.Class(demo.Person)
	if len(person.Fields) != 0 {
		t.Fatalf("proxy Person has fields: %v", person.Fields)
	}
	for _, m := range person.Methods {
		if m.Body != nil {
			t.Fatalf("proxy method %s has body", m.Name)
		}
		if len(m.Calls) != 0 || len(m.Allocates) != 0 {
			t.Fatalf("proxy method %s has edges", m.Name)
		}
		if m.Relay {
			t.Fatalf("proxy method %s marked as relay", m.Name)
		}
	}
	// Proxies expose exactly the public methods.
	orig := demo.MustBankProgram()
	op, _ := orig.Class(demo.Person)
	publics := 0
	for _, m := range op.Methods {
		if m.Public {
			publics++
		}
	}
	if len(person.Methods) != publics {
		t.Fatalf("proxy methods = %d, want %d", len(person.Methods), publics)
	}
}

func TestEDLRoutines(t *testing.T) {
	res := partitionBank(t)
	// Trusted class methods -> ecalls; untrusted -> ocalls.
	if _, ok := res.Interface.Lookup(edl.Ecall, demo.Account, RelayName("updateBalance")); !ok {
		t.Fatal("missing ecall routine for Account.relay$updateBalance")
	}
	if _, ok := res.Interface.Lookup(edl.Ocall, demo.Person, RelayName("transfer")); !ok {
		t.Fatal("missing ocall routine for Person.relay$transfer")
	}
	if _, ok := res.Interface.Lookup(edl.Ecall, demo.Person, RelayName("transfer")); ok {
		t.Fatal("Person routine registered in wrong direction")
	}
	// Counts: trusted relays == ecalls, untrusted relays == ocalls.
	nEcalls := len(res.Interface.Ecalls())
	nOcalls := len(res.Interface.Ocalls())
	if nEcalls == 0 || nOcalls == 0 {
		t.Fatalf("ecalls=%d ocalls=%d", nEcalls, nOcalls)
	}
	if res.Report.RelaysAdded != nEcalls+nOcalls {
		t.Fatalf("RelaysAdded = %d, routines = %d", res.Report.RelaysAdded, nEcalls+nOcalls)
	}
}

func TestReportCounts(t *testing.T) {
	res := partitionBank(t)
	r := res.Report
	if r.TrustedClasses != 2 || r.UntrustedClasses != 2 {
		t.Fatalf("classes: %+v", r)
	}
	if r.NeutralClasses != 5 { // the five builtins
		t.Fatalf("NeutralClasses = %d", r.NeutralClasses)
	}
	if r.ProxiesInTrustedSet != 2 || r.ProxiesInUntrustedSet != 2 {
		t.Fatalf("proxies: %+v", r)
	}
	if r.MethodsStripped == 0 || r.RelaysAdded == 0 {
		t.Fatalf("stripping/relays: %+v", r)
	}
}

func TestRejectsTrustedMain(t *testing.T) {
	p := classmodel.NewProgram()
	c := classmodel.NewClass("M", classmodel.Trusted)
	if err := c.AddMethod(&classmodel.Method{Name: classmodel.MainMethodName, Static: true, Public: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(c); err != nil {
		t.Fatal(err)
	}
	p.MainClass = "M"
	if _, err := Partition(p); err == nil || !strings.Contains(err.Error(), "untrusted image") {
		t.Fatalf("err = %v, want trusted-main rejection", err)
	}
}

func TestRejectsInvalidProgram(t *testing.T) {
	p := classmodel.NewProgram()
	c := classmodel.NewClass("C", classmodel.Trusted)
	if err := c.AddField(classmodel.Field{Name: "leak", Kind: classmodel.FieldInt, Public: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(c); err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(p); err == nil {
		t.Fatal("Partition accepted invalid program")
	}
}

func TestPrivateMethodsNotRelayed(t *testing.T) {
	p := classmodel.NewProgram()
	c := classmodel.NewClass("Secret", classmodel.Trusted)
	if err := c.AddMethod(&classmodel.Method{Name: "internal", Public: false}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddMethod(&classmodel.Method{Name: "exposed", Public: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(c); err != nil {
		t.Fatal(err)
	}
	res, err := Partition(p)
	if err != nil {
		t.Fatal(err)
	}
	sec, _ := res.Trusted.Class("Secret")
	if _, ok := sec.Method(RelayName("internal")); ok {
		t.Fatal("private method got a relay")
	}
	if _, ok := sec.Method(RelayName("exposed")); !ok {
		t.Fatal("public method missing relay")
	}
	proxy, _ := res.Untrusted.Class("Secret")
	if _, ok := proxy.Method("internal"); ok {
		t.Fatal("private method exposed on proxy")
	}
}

func TestOriginalProgramUnchanged(t *testing.T) {
	p := demo.MustBankProgram()
	if err := classmodel.AddBuiltins(p); err != nil {
		t.Fatal(err)
	}
	acctBefore, _ := p.Class(demo.Account)
	nMethods := len(acctBefore.Methods)
	if _, err := Partition(p); err != nil {
		t.Fatal(err)
	}
	acctAfter, _ := p.Class(demo.Account)
	if len(acctAfter.Methods) != nMethods {
		t.Fatal("Partition mutated the input program")
	}
}

func TestRelayNameHelpers(t *testing.T) {
	if RelayName("m") != "relay$m" {
		t.Fatal("RelayName")
	}
}
