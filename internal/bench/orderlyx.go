package bench

// orderlyx.go is the model-checker throughput experiment: the orderly
// explorer's deep mode, run to a fixed number of distinct canonical
// states per configuration, recording the time that took and the rate.
// The rate is the capacity planning number for the verification
// schedules — it says how much interleaving space a CI minute actually
// buys on this machine, and a regression here means deeper smoke
// schedules silently stop fitting their time box. The work is fixed, so
// every run explores the same states and only the time moves.

import (
	"fmt"
	"time"

	"montsalvat/internal/orderly"
)

// OrderlyRate explores the in-process world alphabet deep up to a
// state bound, and the two-shard fabric failover alphabet up to a
// smaller one (a fabric rebuild costs ~10x a world rebuild, so its rate
// is the interesting floor). On a 2-core host the quick bounds take
// about 2 s and 1 s, the full ones about 10 s and 5 s. Any invariant
// violation fails the run — the throughput experiment doubles as one
// more clean sweep.
func OrderlyRate(opts Options) (*Table, error) {
	passes := []struct {
		config    string
		depth     int
		maxStates int
	}{
		{"world", 12, opts.scale(5500, 1300)},
		{"fabric", 8, opts.scale(250, 100)},
	}
	t := &Table{
		ID:     "orderly-rate",
		Title:  "Model-checker exploration rate (orderly deep mode)",
		XLabel: "metric \\ config",
		Unit:   "per bounded pass",
	}
	var depth, states, transitions, resets, elapsed, rate, bounded []float64
	for _, p := range passes {
		build, err := orderly.Config(p.config)
		if err != nil {
			return nil, err
		}
		res, err := orderly.Explore(orderly.Options{
			Build:     build,
			MaxDepth:  p.depth,
			MaxStates: p.maxStates,
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
	t.AddNote("bounded 1 means the state bound, not depth exhaustion, ended the pass; states is then the same in every run, and elapsed-ms and states/s carry the host's speed")
	return t, nil
}
