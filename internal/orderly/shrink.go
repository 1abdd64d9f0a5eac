package orderly

import "strings"

// Shrink reduces a violating action trace to a 1-minimal reproduction:
// removing any single remaining action either stops the violation,
// changes which invariant fails, or disables a later action's guard.
// Greedy single-element elimination iterated to fixpoint — traces are
// bounded by exploration depth, so the O(n²) replay cost is trivial
// next to one exploration round.
func Shrink(build Builder, trace []string, lockCheck bool) ([]string, error) {
	base, err := replayNames(build, trace, lockCheck)
	if err != nil {
		return nil, err
	}
	if base.Violation == nil {
		return nil, &nonReproducibleError{trace: trace}
	}
	// The violating step ends the meaningful trace; drop any suffix.
	cur := append([]string(nil), base.Violation.Raw...)
	want := invariantName(base.Violation.Err)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			cand := make([]string, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			out, err := replayNames(build, cand, lockCheck)
			if err != nil {
				return nil, err
			}
			if out.Violation == nil || invariantName(out.Violation.Err) != want {
				continue
			}
			cur = append([]string(nil), out.Violation.Raw...)
			changed = true
			i--
		}
	}
	return cur, nil
}

// nonReproducibleError reports a trace that no longer violates when
// replayed — a determinism bug in the system adapter, worth surfacing
// loudly rather than silently returning the raw trace.
type nonReproducibleError struct{ trace []string }

func (e *nonReproducibleError) Error() string {
	return "orderly: violation did not reproduce on replay (non-deterministic system?): trace " + strings.Join(e.trace, ",")
}
