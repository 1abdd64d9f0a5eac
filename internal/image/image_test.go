package image

import (
	"errors"
	"strings"
	"testing"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/demo"
	"montsalvat/internal/transform"
)

func bankSets(t *testing.T) *transform.Result {
	t.Helper()
	p := demo.MustBankProgram()
	if err := classmodel.AddBuiltins(p); err != nil {
		t.Fatal(err)
	}
	res, err := transform.Partition(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBuildBothImages(t *testing.T) {
	sets := bankSets(t)
	tImg, err := Build(TrustedImage, sets.Trusted)
	if err != nil {
		t.Fatalf("trusted build: %v", err)
	}
	uImg, err := Build(UntrustedImage, sets.Untrusted)
	if err != nil {
		t.Fatalf("untrusted build: %v", err)
	}
	if tImg.Kind() != TrustedImage || uImg.Kind() != UntrustedImage {
		t.Fatal("kinds wrong")
	}
	// Untrusted image entry points include main.
	foundMain := false
	for _, ep := range uImg.EntryPoints() {
		if ep.Class == demo.Main && ep.Method == classmodel.MainMethodName {
			foundMain = true
		}
	}
	if !foundMain {
		t.Fatal("main not an entry point of the untrusted image")
	}
	// Trusted image entry points are exactly the relays.
	for _, ep := range tImg.EntryPoints() {
		if !strings.HasPrefix(ep.Method, transform.RelayPrefix) {
			t.Fatalf("non-relay trusted entry point %s", ep)
		}
	}
}

func TestProxyPruning(t *testing.T) {
	sets := bankSets(t)
	tImg, err := Build(TrustedImage, sets.Trusted)
	if err != nil {
		t.Fatal(err)
	}
	// No trusted class calls Person or Main: both proxies pruned (§5.3).
	if _, err := tImg.ClassID(demo.Person); !errors.Is(err, ErrClosedWorld) {
		t.Fatalf("Person: %v, want pruned", err)
	}
	if _, err := tImg.ClassID(demo.Main); !errors.Is(err, ErrClosedWorld) {
		t.Fatalf("Main: %v, want pruned", err)
	}
	rep := tImg.Report()
	if rep.ProxiesPruned != 2 || rep.ProxiesKept != 0 {
		t.Fatalf("pruning report: %+v", rep)
	}
	// The untrusted image keeps Account/AccountRegistry proxies (used by
	// main).
	uImg, err := Build(UntrustedImage, sets.Untrusted)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := uImg.ClassID(demo.Account); err != nil {
		t.Fatalf("Account proxy pruned from untrusted image: %v", err)
	}
	if uImg.Report().ProxiesKept != 2 {
		t.Fatalf("untrusted report: %+v", uImg.Report())
	}
}

func TestLookupEnforcesClosedWorld(t *testing.T) {
	sets := bankSets(t)
	uImg, err := Build(UntrustedImage, sets.Untrusted)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := uImg.Lookup(classmodel.MethodRef{Class: demo.Person, Method: "transfer"}); err != nil {
		t.Fatalf("reachable method rejected: %v", err)
	}
	if _, _, err := uImg.Lookup(classmodel.MethodRef{Class: "Ghost", Method: "x"}); !errors.Is(err, ErrClosedWorld) {
		t.Fatalf("unknown class: %v", err)
	}
}

func TestMeasurementDeterministicAndSensitive(t *testing.T) {
	sets1 := bankSets(t)
	sets2 := bankSets(t)
	img1, err := Build(TrustedImage, sets1.Trusted)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := Build(TrustedImage, sets2.Trusted)
	if err != nil {
		t.Fatal(err)
	}
	if img1.Measurement() != img2.Measurement() {
		t.Fatal("identical builds produced different measurements")
	}
	// Adding a method changes the measurement.
	acct, _ := sets2.Trusted.Class(demo.Account)
	if err := acct.AddMethod(&classmodel.Method{
		Name: "backdoor", Public: true, EntryPoint: true, Relay: true, RelayFor: "getBalance",
		Calls: []classmodel.MethodRef{{Class: demo.Account, Method: "getBalance"}},
	}); err != nil {
		t.Fatal(err)
	}
	img3, err := Build(TrustedImage, sets2.Trusted)
	if err != nil {
		t.Fatal(err)
	}
	if img3.Measurement() == img1.Measurement() {
		t.Fatal("tampered image has identical measurement")
	}
}

func TestTrustedImageRejectsMain(t *testing.T) {
	sets := bankSets(t)
	sets.Trusted.MainClass = demo.Account
	sets.Trusted.MainMethod = "getBalance"
	if _, err := Build(TrustedImage, sets.Trusted); err == nil {
		t.Fatal("trusted image accepted a main entry point")
	}
}

func TestUntrustedImageRequiresMain(t *testing.T) {
	sets := bankSets(t)
	sets.Untrusted.MainClass = ""
	if _, err := Build(UntrustedImage, sets.Untrusted); err == nil {
		t.Fatal("untrusted image accepted missing main")
	}
}

func TestNoEntryPoints(t *testing.T) {
	p := classmodel.NewProgram()
	if err := p.AddClass(classmodel.NewClass("Lonely", classmodel.Neutral)); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(TrustedImage, p); err == nil {
		t.Fatal("image with no entry points accepted")
	}
}

func TestClassIDsStableAndPositive(t *testing.T) {
	sets := bankSets(t)
	img, err := Build(UntrustedImage, sets.Untrusted)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]string)
	for _, c := range img.Classes() {
		id, err := img.ClassID(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		if id <= 0 {
			t.Fatalf("class %s id = %d", c.Name, id)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("id %d used by %s and %s", id, prev, c.Name)
		}
		seen[id] = c.Name
	}
}
