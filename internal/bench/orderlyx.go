package bench

// orderlyx.go is the model-checker throughput suite behind
// `montsalvat-bench -json BENCH_orderly.json -suite orderly`: the
// orderly explorer's deep mode, run at a fixed wall-clock budget per
// configuration, recording distinct canonical states per second. The
// rate is the capacity planning number for the verification schedules —
// it says how much interleaving space a CI minute actually buys on this
// machine, and a regression here means deeper smoke schedules silently
// stop fitting their time box.

import (
	"fmt"
	"runtime"
	"time"

	"montsalvat/internal/orderly"
)

// OrderlyPerfPoint is one configuration's exploration-rate measurement.
type OrderlyPerfPoint struct {
	Config   string `json:"config"`
	MaxDepth int    `json:"max_depth"`
	// States is the distinct canonical states visited inside the
	// budget; Transitions counts frontier action applications and
	// Resets full system rebuilds (the replay-from-scratch backtracking
	// cost).
	States       int     `json:"states"`
	Transitions  int64   `json:"transitions"`
	Resets       int64   `json:"resets"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	StatesPerSec float64 `json:"states_per_sec"`
	// Bounded reports the budget (not depth exhaustion) stopped the
	// pass — expected true for the deep world sweep.
	Bounded bool `json:"bounded"`
}

// OrderlyPerfEntry is one labelled model-checker throughput record —
// the perf-trajectory format of BENCH_orderly.json.
type OrderlyPerfEntry struct {
	Label      string             `json:"label"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Quick      bool               `json:"quick"`
	Points     []OrderlyPerfPoint `json:"points"`
}

// OrderlyPerfSchema identifies the BENCH_orderly.json format.
const OrderlyPerfSchema = "montsalvat-bench-orderly/v1"

// OrderlyPerf produces one labelled model-checker throughput record:
// the in-process world alphabet explored deep under a wall-clock
// budget, and the two-shard fabric failover alphabet under a smaller
// one (a fabric rebuild costs ~10x a world rebuild, so its rate is the
// interesting floor). Any invariant violation fails the run — the
// throughput suite doubles as one more clean sweep.
func OrderlyPerf(opts Options, label string) (*OrderlyPerfEntry, error) {
	passes := []struct {
		config string
		depth  int
		budget time.Duration
	}{
		{"world", 12, time.Duration(opts.scale(10, 2)) * time.Second},
		{"fabric", 8, time.Duration(opts.scale(5, 1)) * time.Second},
	}
	e := &OrderlyPerfEntry{Label: label, GoMaxProcs: runtime.GOMAXPROCS(0), Quick: opts.Quick}
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
			return nil, fmt.Errorf("orderly perf %s: %w", p.config, err)
		}
		if v := res.Violation; v != nil {
			return nil, fmt.Errorf("orderly perf %s: invariant violated: %v (seed %s)",
				p.config, v.Err, orderly.FormatSeed(p.config, v.Trace))
		}
		e.Points = append(e.Points, OrderlyPerfPoint{
			Config:       p.config,
			MaxDepth:     p.depth,
			States:       res.States,
			Transitions:  res.Transitions,
			Resets:       res.Resets,
			ElapsedMS:    float64(res.Elapsed) / float64(time.Millisecond),
			StatesPerSec: res.StatesPerSec(),
			Bounded:      res.Bounded,
		})
	}
	return e, nil
}
