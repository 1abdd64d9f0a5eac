package bench

// orderlyx.go is the model-checker throughput experiment: the orderly
// explorer's deep mode, run at a fixed wall-clock budget per
// configuration, recording distinct canonical states per second. The
// rate is the capacity planning number for the verification schedules —
// it says how much interleaving space a CI minute actually buys on this
// machine, and a regression here means deeper smoke schedules silently
// stop fitting their time box.

import (
	"fmt"
	"time"

	"montsalvat/internal/orderly"
)

// OrderlyRate explores the in-process world alphabet deep under a
// wall-clock budget, and the two-shard fabric failover alphabet under a
// smaller one (a fabric rebuild costs ~10x a world rebuild, so its rate
// is the interesting floor). Any invariant violation fails the run — the
// throughput experiment doubles as one more clean sweep.
func OrderlyRate(opts Options) (*Table, error) {
	passes := []struct {
		config string
		depth  int
		budget time.Duration
	}{
		{"world", 12, time.Duration(opts.scale(10, 2)) * time.Second},
		{"fabric", 8, time.Duration(opts.scale(5, 1)) * time.Second},
	}
	t := &Table{
		ID:     "orderly-rate",
		Title:  "Model-checker exploration rate (orderly deep mode)",
		XLabel: "metric \\ config",
		Unit:   "per budgeted pass",
	}
	var depth, states, transitions, resets, elapsed, rate, bounded []float64
	for _, p := range passes {
		build, err := orderly.Config(p.config)
		if err != nil {
			return nil, err
		}
		res, err := orderly.Explore(orderly.Options{
			Build:    build,
			MaxDepth: p.depth,
			Budget:   p.budget,
		})
		if err != nil {
			return nil, fmt.Errorf("orderly-rate %s: %w", p.config, err)
		}
		if v := res.Violation; v != nil {
			return nil, fmt.Errorf("orderly-rate %s: invariant violated: %v (seed %s)",
				p.config, v.Err, v.Seed(p.config))
		}
		t.Columns = append(t.Columns, p.config)
		depth = append(depth, float64(p.depth))
		states = append(states, float64(res.States))
		transitions = append(transitions, float64(res.Transitions))
		resets = append(resets, float64(res.Resets))
		elapsed = append(elapsed, float64(res.Elapsed)/float64(time.Millisecond))
		rate = append(rate, res.StatesPerSec())
		if res.Bounded {
			bounded = append(bounded, 1)
		} else {
			bounded = append(bounded, 0)
		}
	}
	t.AddRow("states/s", rate...)
	t.AddRow("states", states...)
	t.AddRow("transitions", transitions...)
	t.AddRow("resets", resets...)
	t.AddRow("elapsed-ms", elapsed...)
	t.AddRow("max-depth", depth...)
	t.AddRow("bounded", bounded...)
	t.AddNote("states are distinct canonical states; transitions count frontier action applications, resets full system rebuilds (replay-from-scratch backtracking)")
	t.AddNote("bounded 1 means the wall-clock budget, not depth exhaustion, ended the pass")
	return t, nil
}
