package bench

import (
	"fmt"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/heap"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// AblationSwitchless measures the future-work switchless-call mode (§7,
// citing [51]): the Fig. 4a RMI workload charged at the regular
// transition cost versus the switchless cost model.
func AblationSwitchless(opts Options) (*Table, error) {
	invocations := opts.scale(20_000, 500)
	t := &Table{
		ID:      "ablation-switchless",
		Title:   fmt.Sprintf("RMI latency, regular vs switchless transitions (%d invocations)", invocations),
		XLabel:  "mode \\ direction",
		Unit:    "seconds",
		Columns: []string{"proxy-out->in", "proxy-in->out"},
	}

	for _, mode := range []struct {
		name       string
		switchless bool
	}{
		{name: "regular ecall/ocall"},
		{name: "switchless", switchless: true},
	} {
		p, err := microProgram()
		if err != nil {
			return nil, err
		}
		wopts := world.DefaultOptions()
		wopts.Cfg.Switchless = mode.switchless
		w, _, err := core.NewPartitionedWorld(p, wopts)
		if err != nil {
			return nil, err
		}
		values := make([]float64, 0, 2)
		for _, dir := range []struct {
			trustedSide bool
			class       string
		}{
			{trustedSide: false, class: microTrusted},
			{trustedSide: true, class: microUntrusted},
		} {
			var elapsed time.Duration
			err := w.Exec(dir.trustedSide, func(env classmodel.Env) error {
				obj, err := env.New(dir.class, wire.Int(0))
				if err != nil {
					return err
				}
				m := startVMeter(w.Clock())
				for i := 0; i < invocations; i++ {
					if _, err := env.Call(obj, "set", wire.Int(int64(i))); err != nil {
						return err
					}
				}
				elapsed = m.elapsed()
				return nil
			})
			if err != nil {
				w.Close()
				return nil, err
			}
			values = append(values, elapsed.Seconds())
		}
		w.Close()
		t.AddRow(mode.name, values...)
	}
	addRatioNote(t, "regular ecall/ocall", "switchless")
	return t, nil
}

// dispatchModes are the boundary dispatch configurations the ablation
// and the smoke test sweep: full transitions, the switchless cost
// model, transition batching, and both combined.
var dispatchModes = []struct {
	Name       string
	Switchless bool
	Batching   bool
}{
	{Name: "full transitions"},
	{Name: "switchless", Switchless: true},
	{Name: "batched", Batching: true},
	{Name: "batched+switchless", Switchless: true, Batching: true},
}

// dispatchRun is one mode's measurement on the micro proxy workload.
type dispatchRun struct {
	Cycles      int64
	Transitions uint64
}

// runDispatchMode measures the Fig. 4a void-RMI workload (`set` calls on
// a trusted proxy, closed by one `get`) under a dispatch configuration,
// returning charged cycles and completed enclave transitions.
func runDispatchMode(opts Options, switchless, batching bool, invocations int) (dispatchRun, error) {
	p, err := microProgram()
	if err != nil {
		return dispatchRun{}, err
	}
	wopts := world.DefaultOptions()
	wopts.Cfg.Switchless = switchless
	wopts.Cfg.Batching = batching
	w, _, err := core.NewPartitionedWorld(p, wopts)
	if err != nil {
		return dispatchRun{}, err
	}
	defer w.Close()

	var run dispatchRun
	err = w.Exec(false, func(env classmodel.Env) error {
		obj, err := env.New(microTrusted, wire.Int(0))
		if err != nil {
			return err
		}
		c0 := w.Clock().Total()
		s0 := w.Stats().Enclave
		for i := 0; i < invocations; i++ {
			if _, err := env.Call(obj, "set", wire.Int(int64(i))); err != nil {
				return err
			}
		}
		// The read is result-dependent: it flushes any batched calls, so
		// every mode is measured over the same observable final state.
		if _, err := env.Call(obj, "get"); err != nil {
			return err
		}
		s1 := w.Stats().Enclave
		run.Cycles = w.Clock().Total() - c0
		run.Transitions = (s1.Ecalls + s1.Ocalls) - (s0.Ecalls + s0.Ocalls)
		return nil
	})
	return run, err
}

// AblationDispatch measures the boundary dispatch layer (DESIGN.md
// "Boundary dispatch"): the Fig. 4a proxy-call workload under full
// transitions, the switchless cost model, transition batching, and both
// combined. Batching coalesces the void `set` calls into multi-call
// frames, so the per-call transition tax is paid once per watermark
// instead of once per call.
func AblationDispatch(opts Options) (*Table, error) {
	invocations := opts.scale(20_000, 500)
	t := &Table{
		ID:      "ablation-dispatch",
		Title:   fmt.Sprintf("Boundary dispatch modes, proxy-out->in (%d void RMIs + 1 read)", invocations),
		XLabel:  "mode \\ metric",
		Unit:    "simulated cycles / enclave transitions",
		Columns: []string{"cycles", "transitions"},
	}
	runs := make(map[string]dispatchRun, len(dispatchModes))
	for _, mode := range dispatchModes {
		run, err := runDispatchMode(opts, mode.Switchless, mode.Batching, invocations)
		if err != nil {
			return nil, err
		}
		runs[mode.Name] = run
		t.AddRow(mode.Name, float64(run.Cycles), float64(run.Transitions))
	}
	full, best := runs["full transitions"], runs["batched+switchless"]
	if full.Cycles > 0 {
		t.AddNote("batched+switchless cycle reduction vs full transitions: %.1f%%",
			100*(1-float64(best.Cycles)/float64(full.Cycles)))
	}
	if best.Transitions > 0 {
		t.AddNote("transition reduction: %d -> %d (%.0fx fewer)",
			full.Transitions, best.Transitions, float64(full.Transitions)/float64(best.Transitions))
	}
	return t, nil
}

// AblationTCB quantifies the TCB reduction of partitioning plus shim
// versus running the whole application in the enclave LibOS-style
// (DESIGN.md ablation 4; §5.4's motivation). The subject is a synthetic
// 20-class application with 5 security-sensitive classes, the regime the
// paper targets (most application logic has no business in the enclave).
func AblationTCB(opts Options) (*Table, error) {
	prog, err := synthProgram(20, 5, synthCPU, 256, 1)
	if err != nil {
		return nil, err
	}

	build, err := core.BuildPartitioned(prog)
	if err != nil {
		return nil, err
	}
	tcb := build.TCB()

	whole, err := core.BuildUnpartitioned(prog)
	if err != nil {
		return nil, err
	}
	wholeRep := whole.Report()

	t := &Table{
		ID:      "ablation-tcb",
		Title:   "Trusted computing base: partitioned (shim) vs whole-app-in-enclave (LibOS-style)",
		XLabel:  "deployment \\ metric",
		Unit:    "program elements in enclave",
		Columns: []string{"classes", "methods"},
	}
	t.AddRow("partitioned+shim", float64(tcb.TrustedClasses), float64(tcb.TrustedMethods))
	t.AddRow("whole-app (LibOS-style)", float64(wholeRep.ReachableClasses), float64(wholeRep.CompiledMethods))
	t.AddNote("proxies pruned from the trusted image: %d", tcb.ProxiesPruned)
	if tcb.TrustedMethods > 0 {
		t.AddNote("method TCB reduction: %.1fx", float64(wholeRep.CompiledMethods)/float64(tcb.TrustedMethods))
	}
	return t, nil
}

// AblationTransitionCost sweeps the per-ecall cycle cost and reports the
// Fig. 4a RMI latency, showing how the benefit of keeping chatty classes
// out of the enclave scales with transition cost (DESIGN.md ablation 5).
func AblationTransitionCost(opts Options) (*Table, error) {
	invocations := opts.scale(10_000, 400)
	costs := []int64{1200, 3300, 8600, 13100, 26200}
	columns := make([]string, len(costs))
	for i, c := range costs {
		columns[i] = fmt.Sprintf("%d", c)
	}
	t := &Table{
		ID:      "ablation-transition",
		Title:   fmt.Sprintf("RMI latency vs transition cost (%d invocations)", invocations),
		XLabel:  "series \\ ecall cycles",
		Unit:    "seconds",
		Columns: columns,
	}

	remote := make([]float64, 0, len(costs))
	local := make([]float64, 0, len(costs))
	for _, cost := range costs {
		p, err := microProgram()
		if err != nil {
			return nil, err
		}
		wopts := world.DefaultOptions()
		wopts.Cfg.EcallCycles = cost
		wopts.Cfg.OcallCycles = cost * 2 / 3
		wopts.UntrustedHeap = heap.Config{InitialSemi: 8 << 20, MaxSemi: 1 << 30}
		wopts.TrustedHeap = heap.Config{InitialSemi: 8 << 20, MaxSemi: 1 << 30}
		w, _, err := core.NewPartitionedWorld(p, wopts)
		if err != nil {
			return nil, err
		}
		for _, series := range []struct {
			class string
			out   *[]float64
		}{
			{class: microTrusted, out: &remote},  // proxy: ecall per call
			{class: microUntrusted, out: &local}, // concrete: local call
		} {
			var elapsed time.Duration
			err := w.Exec(false, func(env classmodel.Env) error {
				obj, err := env.New(series.class, wire.Int(0))
				if err != nil {
					return err
				}
				m := startVMeter(w.Clock())
				for i := 0; i < invocations; i++ {
					if _, err := env.Call(obj, "set", wire.Int(int64(i))); err != nil {
						return err
					}
				}
				elapsed = m.elapsed()
				return nil
			})
			if err != nil {
				w.Close()
				return nil, err
			}
			*series.out = append(*series.out, elapsed.Seconds())
		}
		w.Close()
	}
	t.AddRow("RMI (proxy-out->in)", remote...)
	t.AddRow("local (concrete-out)", local...)
	return t, nil
}
