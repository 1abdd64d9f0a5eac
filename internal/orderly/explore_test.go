package orderly

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// toySystem is a deterministic counter machine for exercising the
// explorer without a World: three counters with guarded actions and a
// plantable invariant. Cheap enough that exhaustive exploration and
// shrinking run in microseconds.
type toySystem struct {
	a, b, c int
	// boomAt trips the invariant when a reaches it (0 = never).
	boomAt int
	// needC requires action "boom-guard" to have run for the
	// violation to arm, making shrink keep two actions.
	needC bool
}

func toyBuilder(boomAt int, needC bool) Builder {
	return func() (System, error) {
		return &toySystem{boomAt: boomAt, needC: needC}, nil
	}
}

func (s *toySystem) Alphabet() []Action {
	return []Action{
		{Name: "inc-a", Apply: func() error { s.a++; return nil }},
		{Name: "inc-b", Apply: func() error { s.b++; return nil }},
		{Name: "dec-b", Enabled: func() bool { return s.b > 0 }, Apply: func() error { s.b--; return nil }},
		{Name: "boom-guard", Apply: func() error { s.c = 1; return nil }},
	}
}

func (s *toySystem) Hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d,%d,%d", s.a, s.b, s.c)
	return h.Sum64()
}

func (s *toySystem) Check() error {
	if s.boomAt > 0 && s.a >= s.boomAt && (!s.needC || s.c == 1) {
		return Violated("toy-boom", "a=%d reached %d", s.a, s.boomAt)
	}
	return nil
}

func (s *toySystem) Close() {}

func TestExploreExhaustiveCounts(t *testing.T) {
	res, err := Explore(Options{Build: toyBuilder(0, false), MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation.Err)
	}
	if res.MaxDepth != 4 {
		t.Fatalf("MaxDepth = %d, want 4", res.MaxDepth)
	}
	// Reachable states within 4 steps: a in 0..4, c in {0,1}, b
	// bounded by remaining steps. Count them directly: all (a,b,c)
	// with a + c + b_min_cost <= 4 where b is net inc-b minus dec-b;
	// reaching net b requires at least b steps, so a+b+c <= 4 over
	// naturals with c <= 1 — minus the initial state (not counted:
	// states are hashes *after* a step, but the initial state is
	// re-reached by inc-b,dec-b within depth 4).
	// C(a+b+c<=4) = 35 triples with c<=1: enumerate.
	want := 0
	for a := 0; a <= 4; a++ {
		for b := 0; b <= 4; b++ {
			for c := 0; c <= 1; c++ {
				if a+b+c <= 4 && a+b+c > 0 {
					want++
				}
			}
		}
	}
	// The initial state (0,0,0) is also counted: inc-b then dec-b
	// returns to it at depth 2.
	want++
	if res.States != want {
		t.Fatalf("States = %d, want %d", res.States, want)
	}
	if res.Transitions == 0 || res.Resets == 0 {
		t.Fatalf("expected nonzero transitions (%d) and resets (%d)", res.Transitions, res.Resets)
	}
}

func TestExploreFindsAndShrinksViolation(t *testing.T) {
	// Violation requires a >= 2 and the guard: minimal trace is
	// [boom-guard inc-a inc-a] in some order ending at the trip.
	res, err := Explore(Options{Build: toyBuilder(2, true), MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("no violation found")
	}
	v := res.Violation
	if invariantName(v.Err) != "toy-boom" {
		t.Fatalf("violated %q, want toy-boom", invariantName(v.Err))
	}
	if len(v.Trace) != 3 {
		t.Fatalf("shrunk trace %v, want exactly 3 actions (2x inc-a + boom-guard)", v.Trace)
	}
	counts := map[string]int{}
	for _, a := range v.Trace {
		counts[a]++
	}
	if counts["inc-a"] != 2 || counts["boom-guard"] != 1 {
		t.Fatalf("shrunk trace %v, want two inc-a and one boom-guard", v.Trace)
	}
	// The shrunk trace must itself reproduce.
	out, err := replayNames(toyBuilder(2, true), v.Trace, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation == nil || invariantName(out.Violation.Err) != "toy-boom" {
		t.Fatalf("shrunk trace does not reproduce: %+v", out.Violation)
	}
}

// TestNonReproducibleViolationNamesTrace: a violation that does not
// reproduce on replay is a determinism bug, and its report carries the
// trace that violated, so the run can be replayed.
func TestNonReproducibleViolationNamesTrace(t *testing.T) {
	builds := 0
	firstBuildOnly := func() (System, error) {
		builds++
		if builds == 1 {
			return &toySystem{boomAt: 1}, nil
		}
		return &toySystem{}, nil
	}
	out, err := replayNames(firstBuildOnly, []string{"inc-b", "inc-a"}, false)
	if err != nil || out.Violation == nil {
		t.Fatalf("first build: violation %v, err %v", out.Violation, err)
	}
	_, err = Shrink(firstBuildOnly, out.Violation.Raw, false)
	var nr *nonReproducibleError
	if !errors.As(err, &nr) {
		t.Fatalf("Shrink: %v, want a non-reproducible error", err)
	}
	if !strings.Contains(err.Error(), "inc-b,inc-a") {
		t.Fatalf("error %q does not name the trace inc-b,inc-a", err)
	}
}

func TestShrinkIsOneMinimal(t *testing.T) {
	// A deliberately padded trace: only [inc-a inc-a boom-guard]
	// matters (in any order).
	raw := []string{"inc-b", "inc-a", "inc-b", "boom-guard", "dec-b", "inc-a", "inc-b"}
	shrunk, err := Shrink(toyBuilder(2, true), raw, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(shrunk) != 3 {
		t.Fatalf("shrunk to %v, want 3 actions", shrunk)
	}
	// 1-minimality: removing any single action stops the violation.
	for i := range shrunk {
		cand := append(append([]string{}, shrunk[:i]...), shrunk[i+1:]...)
		out, err := replayNames(toyBuilder(2, true), cand, false)
		if err != nil {
			t.Fatal(err)
		}
		if out.Violation != nil {
			t.Fatalf("removing %q still violates: trace %v not 1-minimal", shrunk[i], shrunk)
		}
	}
}

func TestExploreMaxStatesBound(t *testing.T) {
	res, err := Explore(Options{Build: toyBuilder(0, false), MaxDepth: 6, MaxStates: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bounded {
		t.Fatal("expected Bounded with MaxStates=5")
	}
	if res.States < 5 {
		t.Fatalf("States = %d, want >= 5", res.States)
	}
}

func TestSeedRoundTrip(t *testing.T) {
	seed := FormatSeed("world", []string{"ocall-put", "kill", "recover"})
	if want := "orderly:v1:world:ocall-put,kill,recover"; seed != want {
		t.Fatalf("seed %q, want %q", seed, want)
	}
	config, trace, err := ParseSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	if config != "world" || !reflect.DeepEqual(trace, []string{"ocall-put", "kill", "recover"}) {
		t.Fatalf("parsed (%q, %v)", config, trace)
	}
	if _, _, err := ParseSeed("not-a-seed"); !errors.Is(err, ErrBadSeed) {
		t.Fatalf("malformed seed: %v, want ErrBadSeed", err)
	}
	if _, _, err := ParseSeed("orderly:v1::x"); !errors.Is(err, ErrBadSeed) {
		t.Fatalf("empty config: %v, want ErrBadSeed", err)
	}
	// Empty trace is legal (a config smoke boot).
	config, trace, err = ParseSeed("orderly:v1:fabric:")
	if err != nil || config != "fabric" || len(trace) != 0 {
		t.Fatalf("empty-trace seed: (%q, %v, %v)", config, trace, err)
	}
}

// FuzzParseSeed feeds hostile seeds to the parser: it must fail with
// ErrBadSeed or return a seed that formats back to itself, and never
// panic.
func FuzzParseSeed(f *testing.F) {
	f.Add(FormatSeed("world", []string{"ocall-put", "kill", "recover"}))
	f.Add("orderly:v1:fabric:")
	f.Add("orderly:v1::x")
	f.Add("orderly:v1:world:a,,b")
	f.Add("  orderly:v1:gateway: put , get\n")
	f.Add("not-a-seed")
	if seeds, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.seed")); err == nil {
		for _, path := range seeds {
			b, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			for _, line := range strings.Split(string(b), "\n") {
				if !strings.HasPrefix(line, "#") {
					f.Add(line)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed string) {
		config, trace, err := ParseSeed(seed)
		if err != nil {
			if !errors.Is(err, ErrBadSeed) {
				t.Fatalf("ParseSeed(%q) = %v, want an ErrBadSeed", seed, err)
			}
			return
		}
		config2, trace2, err := ParseSeed(FormatSeed(config, trace))
		if err != nil || config2 != config || !reflect.DeepEqual(trace2, trace) {
			t.Fatalf("ParseSeed(%q) = (%q, %q) does not round-trip: (%q, %q, %v)", seed, config, trace, config2, trace2, err)
		}
	})
}

func TestReplayDeterminismToy(t *testing.T) {
	trace := []string{"inc-a", "inc-b", "boom-guard", "dec-b", "inc-a"}
	first, err := replayNames(toyBuilder(0, false), trace, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := replayNames(toyBuilder(0, false), trace, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Hashes, again.Hashes) {
			t.Fatalf("replay %d diverged: %v vs %v", i, first.Hashes, again.Hashes)
		}
	}
}

func TestConfigsRegistered(t *testing.T) {
	got := strings.Join(Configs(), ",")
	if got != "fabric,gateway,world" {
		t.Fatalf("Configs() = %s", got)
	}
	if _, err := Config("nope"); err == nil {
		t.Fatal("want error for unknown config")
	}
}
