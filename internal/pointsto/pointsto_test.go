package pointsto

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"montsalvat/internal/classmodel"
)

// buildProgram assembles a program from a terse spec: class -> method ->
// (calls, allocates). All classes are neutral; annotations are irrelevant
// to reachability.
type methodSpec struct {
	calls  []classmodel.MethodRef
	allocs []string
	static bool
}

func buildProgram(t *testing.T, spec map[string]map[string]methodSpec) *classmodel.Program {
	t.Helper()
	p := classmodel.NewProgram()
	for clsName, methods := range spec {
		c := classmodel.NewClass(clsName, classmodel.Neutral)
		for mName, ms := range methods {
			if err := c.AddMethod(&classmodel.Method{
				Name:      mName,
				Static:    ms.static || mName == classmodel.StaticInitName,
				Public:    true,
				Calls:     ms.calls,
				Allocates: ms.allocs,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func ref(c, m string) classmodel.MethodRef { return classmodel.MethodRef{Class: c, Method: m} }

func TestLinearChain(t *testing.T) {
	p := buildProgram(t, map[string]map[string]methodSpec{
		"A": {"a": {calls: []classmodel.MethodRef{ref("B", "b")}}},
		"B": {"b": {calls: []classmodel.MethodRef{ref("C", "c")}}},
		"C": {"c": {}},
		"D": {"dead": {}},
	})
	r, err := Analyze(p, []classmodel.MethodRef{ref("A", "a")})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []classmodel.MethodRef{ref("A", "a"), ref("B", "b"), ref("C", "c")} {
		if !r.MethodReachable(m) {
			t.Fatalf("%s not reachable", m)
		}
	}
	if r.MethodReachable(ref("D", "dead")) {
		t.Fatal("dead method reachable")
	}
	if r.ClassReachable("D") {
		t.Fatal("dead class reachable")
	}
}

func TestDiamond(t *testing.T) {
	p := buildProgram(t, map[string]map[string]methodSpec{
		"A": {"a": {calls: []classmodel.MethodRef{ref("B", "b"), ref("C", "c")}}},
		"B": {"b": {calls: []classmodel.MethodRef{ref("D", "d")}}},
		"C": {"c": {calls: []classmodel.MethodRef{ref("D", "d")}}},
		"D": {"d": {}},
	})
	r, err := Analyze(p, []classmodel.MethodRef{ref("A", "a")})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Report().ReachableMethods; got != 4 {
		t.Fatalf("ReachableMethods = %d, want 4", got)
	}
}

func TestUnreachedMethodsOfReachableClassPruned(t *testing.T) {
	p := buildProgram(t, map[string]map[string]methodSpec{
		"A": {"a": {calls: []classmodel.MethodRef{ref("B", "used")}}},
		"B": {
			"used":   {},
			"unused": {},
		},
	})
	r, err := Analyze(p, []classmodel.MethodRef{ref("A", "a")})
	if err != nil {
		t.Fatal(err)
	}
	if !r.MethodReachable(ref("B", "used")) {
		t.Fatal("used method not reachable")
	}
	if r.MethodReachable(ref("B", "unused")) {
		t.Fatal("unused method of reachable class kept")
	}
	if !r.ClassReachable("B") {
		t.Fatal("class B should be reachable")
	}
}

func TestAllocationPullsCtorAndClinit(t *testing.T) {
	p := buildProgram(t, map[string]map[string]methodSpec{
		"Main": {"main": {allocs: []string{"Obj"}, static: true}},
		"Obj": {
			classmodel.CtorName:       {},
			classmodel.StaticInitName: {},
			"helper":                  {},
		},
	})
	r, err := Analyze(p, []classmodel.MethodRef{ref("Main", "main")})
	if err != nil {
		t.Fatal(err)
	}
	if !r.instantiated["Obj"] {
		t.Fatal("Obj not instantiated")
	}
	if !r.MethodReachable(ref("Obj", classmodel.CtorName)) {
		t.Fatal("constructor not reachable")
	}
	if !r.MethodReachable(ref("Obj", classmodel.StaticInitName)) {
		t.Fatal("<clinit> not reachable")
	}
	if r.MethodReachable(ref("Obj", "helper")) {
		t.Fatal("uncalled helper reachable")
	}
}

func TestRefFieldTypeReachable(t *testing.T) {
	p := classmodel.NewProgram()
	other := classmodel.NewClass("Other", classmodel.Neutral)
	if err := p.AddClass(other); err != nil {
		t.Fatal(err)
	}
	obj := classmodel.NewClass("Obj", classmodel.Neutral)
	if err := obj.AddField(classmodel.Field{Name: "o", Kind: classmodel.FieldRef, ClassName: "Other"}); err != nil {
		t.Fatal(err)
	}
	if err := obj.AddMethod(&classmodel.Method{Name: classmodel.CtorName, Public: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(obj); err != nil {
		t.Fatal(err)
	}
	mainC := classmodel.NewClass("Main", classmodel.Neutral)
	if err := mainC.AddMethod(&classmodel.Method{Name: "main", Static: true, Public: true, Allocates: []string{"Obj"}}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClass(mainC); err != nil {
		t.Fatal(err)
	}

	r, err := Analyze(p, []classmodel.MethodRef{ref("Main", "main")})
	if err != nil {
		t.Fatal(err)
	}
	if !r.ClassReachable("Other") {
		t.Fatal("ref field type not reachable")
	}
	if r.instantiated["Other"] {
		t.Fatal("ref field type spuriously instantiated")
	}
}

func TestCyclicCallGraphTerminates(t *testing.T) {
	p := buildProgram(t, map[string]map[string]methodSpec{
		"A": {"a": {calls: []classmodel.MethodRef{ref("B", "b")}}},
		"B": {"b": {calls: []classmodel.MethodRef{ref("A", "a")}}},
	})
	r, err := Analyze(p, []classmodel.MethodRef{ref("A", "a")})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Report().ReachableMethods; got != 2 {
		t.Fatalf("ReachableMethods = %d, want 2", got)
	}
}

func TestMultipleEntryPoints(t *testing.T) {
	p := buildProgram(t, map[string]map[string]methodSpec{
		"A": {"relay1": {}, "relay2": {}},
		"B": {"dead": {}},
	})
	r, err := Analyze(p, []classmodel.MethodRef{ref("A", "relay1"), ref("A", "relay2")})
	if err != nil {
		t.Fatal(err)
	}
	if !r.MethodReachable(ref("A", "relay1")) || !r.MethodReachable(ref("A", "relay2")) {
		t.Fatal("entry points not reachable")
	}
	if got := r.Report().EntryPoints; got != 2 {
		t.Fatalf("EntryPoints = %d, want 2", got)
	}
}

func TestUnknownEntryPoint(t *testing.T) {
	p := buildProgram(t, map[string]map[string]methodSpec{"A": {"a": {}}})
	if _, err := Analyze(p, []classmodel.MethodRef{ref("Ghost", "x")}); err == nil {
		t.Fatal("accepted unknown entry point")
	}
}

func TestUnresolvedCallEdge(t *testing.T) {
	p := buildProgram(t, map[string]map[string]methodSpec{
		"A": {"a": {calls: []classmodel.MethodRef{ref("Ghost", "x")}}},
	})
	if _, err := Analyze(p, []classmodel.MethodRef{ref("A", "a")}); err == nil {
		t.Fatal("accepted unresolved call edge")
	}
}

func TestDeterministicOrder(t *testing.T) {
	p := buildProgram(t, map[string]map[string]methodSpec{
		"Z": {"z": {}},
		"A": {"a": {calls: []classmodel.MethodRef{ref("Z", "z"), ref("M", "m")}}},
		"M": {"m": {}},
	})
	r, err := Analyze(p, []classmodel.MethodRef{ref("A", "a")})
	if err != nil {
		t.Fatal(err)
	}
	cs := r.Classes()
	if len(cs) != 3 || cs[0] != "A" || cs[1] != "M" || cs[2] != "Z" {
		t.Fatalf("Classes() = %v", cs)
	}
}

// Property: reachability is monotonic — adding an entry point never
// shrinks the reachable set.
func TestQuickMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 12
		// Random call graph over n single-method classes.
		p := classmodel.NewProgram()
		edges := make([][]classmodel.MethodRef, n)
		for i := 0; i < n; i++ {
			for k := 0; k < r.Intn(3); k++ {
				target := r.Intn(n)
				edges[i] = append(edges[i], ref("C"+strconv.Itoa(target), "m"))
			}
		}
		for i := 0; i < n; i++ {
			c := classmodel.NewClass("C"+strconv.Itoa(i), classmodel.Neutral)
			if err := c.AddMethod(&classmodel.Method{Name: "m", Public: true, Calls: edges[i]}); err != nil {
				return false
			}
			if err := p.AddClass(c); err != nil {
				return false
			}
		}
		e1 := ref("C"+strconv.Itoa(r.Intn(n)), "m")
		e2 := ref("C"+strconv.Itoa(r.Intn(n)), "m")
		r1, err := Analyze(p, []classmodel.MethodRef{e1})
		if err != nil {
			return false
		}
		r2, err := Analyze(p, []classmodel.MethodRef{e1, e2})
		if err != nil {
			return false
		}
		for m := range r1.methods {
			if !r2.MethodReachable(m) {
				return false
			}
		}
		return r2.Report().ReachableMethods >= r1.Report().ReachableMethods
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
