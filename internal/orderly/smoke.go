package orderly

import (
	"fmt"
	"io"
	"time"
)

// CheckPass is one exploration pass of a smoke schedule. Passes over
// the same Config share one StateSet, so the reported distinct-state
// count is a true union (a deep bounded pass only pays for states the
// exhaustive pass has not already visited).
type CheckPass struct {
	// Label names the pass in the report.
	Label string
	// Config selects the registered system configuration.
	Config string
	// MaxDepth / MinDepth / MaxStates / LockCheck are forwarded to
	// Options (see Explore).
	MaxDepth  int
	MinDepth  int
	MaxStates int
	LockCheck bool
}

// ServeCheckPasses is the gateway-side smoke schedule (-orderly-check
// in montsalvat-serve): an exhaustive depth-6 sweep of the 12-action
// world alphabet, a deep states-bounded pass that pushes the distinct
// state union past the 10k mark, a shallow pass with the lockrank
// shims armed, and a served-gateway pass exercising the session and
// recovery alphabet over real TCP.
func ServeCheckPasses() []CheckPass {
	return []CheckPass{
		{Label: "world exhaustive", Config: "world", MaxDepth: 6},
		{Label: "world deep", Config: "world", MinDepth: 10, MaxDepth: 10, MaxStates: 10500},
		{Label: "world lock-check", Config: "world", MaxDepth: 3, LockCheck: true},
		{Label: "gateway lock-check", Config: "gateway", MaxDepth: 3, LockCheck: true},
	}
}

// FabricCheckPasses is the fabric-side smoke schedule (-orderly-check
// in montsalvat-fabric): the two-shard failover alphabet explored
// exhaustively, plus a lock-check pass.
func FabricCheckPasses() []CheckPass {
	return []CheckPass{
		{Label: "fabric exhaustive", Config: "fabric", MaxDepth: 5},
		{Label: "fabric lock-check", Config: "fabric", MaxDepth: 4, LockCheck: true},
	}
}

// RunCheck executes a smoke schedule, reporting one line per pass and
// a distinct-state total at the end. The first invariant violation
// stops the run: the shrunk trace is printed as a replayable seed and
// the returned error is non-nil. Exploration malfunctions (build
// failures, replay divergence) also fail the run.
func RunCheck(out io.Writer, passes []CheckPass) error {
	sets := map[string]*StateSet{}
	start := time.Now()
	for _, p := range passes {
		build, err := Config(p.Config)
		if err != nil {
			return err
		}
		set := sets[p.Config]
		if set == nil {
			set = NewStateSet()
			sets[p.Config] = set
		}
		res, err := Explore(Options{
			Build:     build,
			MaxDepth:  p.MaxDepth,
			MinDepth:  p.MinDepth,
			MaxStates: p.MaxStates,
			States:    set,
			LockCheck: p.LockCheck,
		})
		if err != nil {
			return fmt.Errorf("orderly-check: %s: %w", p.Label, err)
		}
		bounded := ""
		if res.Bounded {
			bounded = " (bounded)"
		}
		fmt.Fprintf(out, "orderly-check: %-20s depth=%d states=%d transitions=%d resets=%d elapsed=%v%s\n",
			p.Label, p.MaxDepth, res.States, res.Transitions, res.Resets,
			res.Elapsed.Round(time.Millisecond), bounded)
		if v := res.Violation; v != nil {
			fmt.Fprintf(out, "orderly-check: VIOLATION in %s: %v\n", p.Label, v.Err)
			fmt.Fprintf(out, "orderly-check: replay seed: %s\n", v.Seed(p.Config))
			return fmt.Errorf("orderly-check: %s: %w", p.Label, v.Err)
		}
	}
	distinct := 0
	for _, set := range sets {
		distinct += set.Len()
	}
	fmt.Fprintf(out, "orderly-check: %d distinct states across %d passes in %v: OK\n",
		distinct, len(passes), time.Since(start).Round(time.Millisecond))
	return nil
}
