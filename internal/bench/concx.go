package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/wire"
)

// concGoroutines is the goroutine sweep of the scaling experiment.
var concGoroutines = []int{1, 2, 4, 8, 16}

// concurrentCfg is the platform configuration of the concurrency
// experiments: regular transition cost, no batching reordering the
// call stream, and — when costs
// are charged as real time — timer-wait charging, so the stall-modelled
// transition costs of concurrent crossings overlap and the measurement
// exposes lock scaling rather than core count.
func concurrentCfg(opts Options) simcfg.Config {
	cfg := opts.Config()
	cfg.Switchless = false
	cfg.Batching = false
	if cfg.Spin {
		cfg.SleepCharges = true
	}
	return cfg
}

// concResult is one concurrent-RMI measurement point.
type concResult struct {
	Ops         int
	OpsPerSec   float64
	P50         time.Duration
	P99         time.Duration
	Transitions uint64
	Cycles      int64
}

// runConcurrentRMI drives iters proxy invocations from each of n
// goroutines against a fresh micro world: every goroutine owns one
// trusted-class proxy and hammers its setter, so each call crosses the
// boundary and exercises the registries, the object tables, and the
// marshal path concurrently.
func runConcurrentRMI(cfg simcfg.Config, n, iters int) (concResult, error) {
	w, err := microWorldCfg(cfg)
	if err != nil {
		return concResult{}, err
	}
	defer w.Close()

	s0 := w.Stats()
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		errs  = make([]error, n)
		lats  = make([][]int64, n)
	)
	for g := 0; g < n; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = w.Exec(false, func(env classmodel.Env) error {
				obj, err := env.New(microTrusted, wire.Int(0))
				if err != nil {
					return err
				}
				<-start
				samples := make([]int64, 0, iters)
				for i := 0; i < iters; i++ {
					t0 := time.Now()
					if _, err := env.Call(obj, "set", wire.Int(int64(i))); err != nil {
						return err
					}
					samples = append(samples, time.Since(t0).Nanoseconds())
				}
				lats[g] = samples
				return nil
			})
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return concResult{}, err
		}
	}
	s1 := w.Stats()

	var merged []int64
	for _, s := range lats {
		merged = append(merged, s...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	pct := func(p float64) time.Duration {
		if len(merged) == 0 {
			return 0
		}
		i := int(p * float64(len(merged)-1))
		return time.Duration(merged[i])
	}
	ops := n * iters
	r := concResult{
		Ops:         ops,
		P50:         pct(0.50),
		P99:         pct(0.99),
		Transitions: s1.Enclave.Ecalls + s1.Enclave.Ocalls - s0.Enclave.Ecalls - s0.Enclave.Ocalls,
		Cycles:      s1.Cycles - s0.Cycles,
	}
	if wall > 0 {
		r.OpsPerSec = float64(ops) / wall.Seconds()
	}
	return r, nil
}

// ConcurrentRMI measures proxy-call throughput as the number of
// concurrently crossing goroutines grows (the scaling ablation of the
// concurrent crossing engine): near-flat speedup means the crossings
// queue on a global mutator lock; scaling speedup means they proceed in
// parallel through the sharded registries and object tables.
func ConcurrentRMI(opts Options) (*Table, error) {
	iters := opts.scale(300, 40)
	cfg := concurrentCfg(opts)
	t := &Table{
		ID:      "concurrent-rmi",
		Title:   "Concurrent RMI throughput scaling (goroutines driving proxy calls)",
		XLabel:  "series \\ goroutines",
		Unit:    "ops/s",
		Columns: intColumns(concGoroutines),
	}
	var thr, speed, p50, p99, trans, cyc []float64
	for _, g := range concGoroutines {
		r, err := runConcurrentRMI(cfg, g, iters)
		if err != nil {
			return nil, fmt.Errorf("concurrent-rmi g=%d: %w", g, err)
		}
		thr = append(thr, r.OpsPerSec)
		if thr[0] > 0 {
			speed = append(speed, r.OpsPerSec/thr[0])
		} else {
			speed = append(speed, 0)
		}
		p50 = append(p50, float64(r.P50.Nanoseconds()))
		p99 = append(p99, float64(r.P99.Nanoseconds()))
		trans = append(trans, float64(r.Transitions)/float64(r.Ops))
		cyc = append(cyc, float64(r.Cycles)/float64(r.Ops))
	}
	t.AddRow("throughput", thr...)
	t.AddRow("speedup-vs-1", speed...)
	t.AddRow("p50-ns", p50...)
	t.AddRow("p99-ns", p99...)
	t.AddRow("transitions/op", trans...)
	t.AddRow("cycles/op", cyc...)
	t.AddNote("GOMAXPROCS=%d; stall-modelled transition costs overlap as timer waits", runtime.GOMAXPROCS(0))
	return t, nil
}
