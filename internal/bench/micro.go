package bench

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/cycles"
	"montsalvat/internal/epc"
	"montsalvat/internal/heap"
	"montsalvat/internal/mee"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// Micro-benchmark class names (the synthetic programs of §6.2-§6.4).
const (
	microTrusted   = "TObj"
	microUntrusted = "UObj"
)

// microProgram builds the synthetic two-way program of the
// micro-benchmarks: a trusted class and an untrusted class with identical
// shapes (a setter, a serializable-parameter setter and a getter), plus a
// trusted anchor whose call edges keep the untrusted proxy reachable in
// the trusted image (so trusted code can create proxies too) and an
// untrusted main.
func microProgram() (*classmodel.Program, error) {
	p := classmodel.NewProgram()
	for _, spec := range []struct {
		name string
		ann  classmodel.Annotation
	}{
		{name: microTrusted, ann: classmodel.Trusted},
		{name: microUntrusted, ann: classmodel.Untrusted},
	} {
		c := classmodel.NewClass(spec.name, spec.ann)
		if err := c.AddField(classmodel.Field{Name: "x", Kind: classmodel.FieldInt}); err != nil {
			return nil, err
		}
		if err := c.AddMethod(&classmodel.Method{
			Name: classmodel.CtorName, Public: true,
			Params: []classmodel.Param{{Name: "v", Kind: wire.KindInt}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				return wire.Null(), env.SetField(self, "x", args[0])
			},
		}); err != nil {
			return nil, err
		}
		if err := c.AddMethod(&classmodel.Method{
			Name: "set", Public: true,
			Params: []classmodel.Param{{Name: "v", Kind: wire.KindInt}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				return wire.Null(), env.SetField(self, "x", args[0])
			},
		}); err != nil {
			return nil, err
		}
		if err := c.AddMethod(&classmodel.Method{
			Name: "setAll", Public: true,
			Params: []classmodel.Param{{Name: "vs", Kind: wire.KindList}},
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				// Store the list length, touching every element.
				return wire.Null(), env.SetField(self, "x", wire.Int(int64(args[0].Len())))
			},
		}); err != nil {
			return nil, err
		}
		if err := c.AddMethod(&classmodel.Method{
			Name: "get", Public: true, Returns: wire.KindInt,
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				return env.GetField(self, "x")
			},
		}); err != nil {
			return nil, err
		}
		if err := p.AddClass(c); err != nil {
			return nil, err
		}
	}

	anchor := classmodel.NewClass("Anchor", classmodel.Trusted)
	if err := anchor.AddMethod(&classmodel.Method{
		Name: "touch", Public: true, Static: true,
		Allocates: []string{microUntrusted},
		Calls: []classmodel.MethodRef{
			{Class: microUntrusted, Method: "set"},
			{Class: microUntrusted, Method: "setAll"},
			{Class: microUntrusted, Method: "get"},
		},
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return wire.Null(), nil
		},
	}); err != nil {
		return nil, err
	}
	if err := p.AddClass(anchor); err != nil {
		return nil, err
	}

	mainC := classmodel.NewClass("MicroMain", classmodel.Untrusted)
	if err := mainC.AddMethod(&classmodel.Method{
		Name: classmodel.MainMethodName, Static: true, Public: true,
		// The harness drives both classes from main's runtime, so main
		// declares the edges that keep them (and their proxies)
		// reachable in the untrusted image.
		Allocates: []string{microTrusted, microUntrusted},
		Calls: []classmodel.MethodRef{
			{Class: microTrusted, Method: "set"},
			{Class: microTrusted, Method: "setAll"},
			{Class: microTrusted, Method: "get"},
			{Class: microUntrusted, Method: "set"},
			{Class: microUntrusted, Method: "setAll"},
			{Class: microUntrusted, Method: "get"},
		},
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return wire.Null(), nil
		},
	}); err != nil {
		return nil, err
	}
	if err := p.AddClass(mainC); err != nil {
		return nil, err
	}
	p.MainClass = "MicroMain"
	return p, nil
}

// microWorld builds a partitioned world for the micro-benchmarks with
// heaps sized for the object-count sweeps.
func microWorld() (*world.World, error) {
	return microWorldCfg(simcfg.Default())
}

// microWorldCfg is microWorld with an explicit platform configuration
// (the concurrency experiments tune charging and boundary modes).
func microWorldCfg(cfg simcfg.Config) (*world.World, error) {
	p, err := microProgram()
	if err != nil {
		return nil, err
	}
	wopts := world.DefaultOptions()
	wopts.Cfg = cfg
	wopts.TrustedHeap = heap.Config{InitialSemi: 8 << 20, MaxSemi: 1 << 30}
	wopts.UntrustedHeap = heap.Config{InitialSemi: 8 << 20, MaxSemi: 1 << 30}
	w, _, err := core.NewPartitionedWorld(p, wopts)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// cleanupMicro drops garbage between measurement points so successive
// sweeps start from comparable heaps.
func cleanupMicro(w *world.World) error {
	if err := w.Untrusted().Collect(); err != nil {
		return err
	}
	if err := w.SweepOnce(w.Untrusted()); err != nil {
		return err
	}
	if err := w.Trusted().Collect(); err != nil {
		return err
	}
	if err := w.SweepOnce(w.Trusted()); err != nil {
		return err
	}
	return w.Untrusted().Collect()
}

// Fig3 measures proxy-object creation versus concrete-object creation in
// and out of the enclave (§6.2).
func Fig3(opts Options) (*Table, error) {
	w, err := microWorld()
	if err != nil {
		return nil, err
	}
	defer w.Close()

	counts := sweep(opts.scale(10_000, 500), opts.scale(100_000, 2_500), 10)
	t := &Table{
		ID:      "fig3",
		Title:   "Latency of object creation (proxy vs concrete, in vs out of enclave)",
		XLabel:  "series \\ objects",
		Unit:    "seconds",
		Columns: intColumns(counts),
	}

	type series struct {
		name        string
		trustedSide bool
		class       string
	}
	for _, s := range []series{
		{name: "proxy-out->in", trustedSide: false, class: microTrusted},
		{name: "proxy-in->out", trustedSide: true, class: microUntrusted},
		{name: "concrete-out", trustedSide: false, class: microUntrusted},
		{name: "concrete-in", trustedSide: true, class: microTrusted},
	} {
		values := make([]float64, 0, len(counts))
		for _, n := range counts {
			var elapsed time.Duration
			err := w.Exec(s.trustedSide, func(env classmodel.Env) error {
				m := startVMeter(w.Clock())
				for i := 0; i < n; i++ {
					if _, err := env.New(s.class, wire.Int(int64(i))); err != nil {
						return err
					}
				}
				elapsed = m.elapsed()
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("fig3 %s n=%d: %w", s.name, n, err)
			}
			values = append(values, elapsed.Seconds())
			if err := cleanupMicro(w); err != nil {
				return nil, err
			}
		}
		t.AddRow(s.name, values...)
	}

	addRatioNote(t, "proxy-out->in", "concrete-out")
	addRatioNote(t, "proxy-in->out", "concrete-in")
	return t, nil
}

// Fig4a measures remote method invocation latency versus concrete
// invocation (§6.3, Fig. 4a, the non-serialized series).
func Fig4a(opts Options) (*Table, error) {
	w, err := microWorld()
	if err != nil {
		return nil, err
	}
	defer w.Close()

	counts := sweep(opts.scale(10_000, 500), opts.scale(100_000, 2_500), 10)
	t := &Table{
		ID:      "fig4a",
		Title:   "Latency of method invocations (RMI vs concrete)",
		XLabel:  "series \\ invocations",
		Unit:    "seconds",
		Columns: intColumns(counts),
	}

	type series struct {
		name        string
		trustedSide bool
		class       string
	}
	for _, s := range []series{
		{name: "proxy-out->in", trustedSide: false, class: microTrusted},
		{name: "proxy-in->out", trustedSide: true, class: microUntrusted},
		{name: "concrete-out", trustedSide: false, class: microUntrusted},
		{name: "concrete-in", trustedSide: true, class: microTrusted},
	} {
		values := make([]float64, 0, len(counts))
		for _, n := range counts {
			var elapsed time.Duration
			err := w.Exec(s.trustedSide, func(env classmodel.Env) error {
				obj, err := env.New(s.class, wire.Int(0))
				if err != nil {
					return err
				}
				m := startVMeter(w.Clock())
				for i := 0; i < n; i++ {
					if _, err := env.Call(obj, "set", wire.Int(int64(i))); err != nil {
						return err
					}
				}
				elapsed = m.elapsed()
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("fig4a %s n=%d: %w", s.name, n, err)
			}
			values = append(values, elapsed.Seconds())
			if err := cleanupMicro(w); err != nil {
				return nil, err
			}
		}
		t.AddRow(s.name, values...)
	}
	addRatioNote(t, "proxy-out->in", "concrete-out")
	addRatioNote(t, "proxy-in->out", "concrete-in")
	return t, nil
}

// Fig4b measures the impact of serialized parameters on RMIs (§6.3,
// Fig. 4b): a fixed number of invocations carrying a list of 16-byte
// strings whose length is swept.
func Fig4b(opts Options) (*Table, error) {
	w, err := microWorld()
	if err != nil {
		return nil, err
	}
	defer w.Close()

	invocations := opts.scale(10_000, 300)
	listSizes := sweep(10, 100, 10)
	t := &Table{
		ID:      "fig4b",
		Title:   fmt.Sprintf("RMI latency with serialized list parameter (%d invocations)", invocations),
		XLabel:  "series \\ list size",
		Unit:    "seconds",
		Columns: intColumns(listSizes),
	}

	elem := wire.Str(strings.Repeat("x", 16))
	type series struct {
		name        string
		trustedSide bool
		class       string
		serialize   bool
	}
	for _, s := range []series{
		{name: "proxy-out->in+s", trustedSide: false, class: microTrusted, serialize: true},
		{name: "proxy-in->out+s", trustedSide: true, class: microUntrusted, serialize: true},
		{name: "proxy-out->in", trustedSide: false, class: microTrusted},
		{name: "proxy-in->out", trustedSide: true, class: microUntrusted},
	} {
		values := make([]float64, 0, len(listSizes))
		for _, ls := range listSizes {
			elems := make([]wire.Value, ls)
			for i := range elems {
				elems[i] = elem
			}
			list := wire.List(elems...)
			var elapsed time.Duration
			err := w.Exec(s.trustedSide, func(env classmodel.Env) error {
				obj, err := env.New(s.class, wire.Int(0))
				if err != nil {
					return err
				}
				m := startVMeter(w.Clock())
				for i := 0; i < invocations; i++ {
					if s.serialize {
						if _, err := env.Call(obj, "setAll", list); err != nil {
							return err
						}
					} else {
						if _, err := env.Call(obj, "set", wire.Int(int64(i))); err != nil {
							return err
						}
					}
				}
				elapsed = m.elapsed()
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("fig4b %s size=%d: %w", s.name, ls, err)
			}
			values = append(values, elapsed.Seconds())
			if err := cleanupMicro(w); err != nil {
				return nil, err
			}
		}
		t.AddRow(s.name, values...)
	}
	addRatioNote(t, "proxy-in->out+s", "proxy-in->out")
	addRatioNote(t, "proxy-out->in+s", "proxy-out->in")
	return t, nil
}

// Fig5a measures total GC time in and out of the enclave (§6.4): N live
// objects are allocated and one stop-and-copy cycle is forced; the
// in-enclave heap copies every byte through the MEE.
func Fig5a(opts Options) (*Table, error) {
	counts := sweep(opts.scale(50_000, 2_000), opts.scale(500_000, 20_000), 10)
	t := &Table{
		ID:      "fig5a",
		Title:   "Total GC time for N live objects (stop-and-copy)",
		XLabel:  "series \\ objects",
		Unit:    "seconds",
		Columns: intColumns(counts),
	}

	const objData = 40
	heapCfg := heap.Config{InitialSemi: 128 << 20, MaxSemi: 512 << 20}
	run := func(h *heap.Heap, clk *cycles.Clock, n int) (timing, error) {
		for i := 0; i < n; i++ {
			addr, err := h.Alloc(1, 0, objData)
			if err != nil {
				return timing{}, err
			}
			o, err := h.View(addr)
			if err != nil {
				return timing{}, err
			}
			if _, err := h.NewHandle(o, 0); err != nil {
				return timing{}, err
			}
		}
		m := startMeter(clk)
		if err := h.Collect(); err != nil {
			return timing{}, err
		}
		return m.stop(), nil
	}

	outVals := make([]timing, 0, len(counts))
	for _, n := range counts {
		h, err := heap.NewPlain(heapCfg)
		if err != nil {
			return nil, err
		}
		d, err := run(h, nil, n)
		if err != nil {
			return nil, err
		}
		outVals = append(outVals, d)
	}
	t.AddTimedRow("GC-out (concrete-out)", outVals)

	inVals := make([]timing, 0, len(counts))
	for _, n := range counts {
		eng, err := mee.New()
		if err != nil {
			return nil, err
		}
		clk := cycles.New(simcfg.CPUHz)
		res, err := epc.NewResidency(simcfg.DefaultEPCBytes, clk)
		if err != nil {
			return nil, err
		}
		h, err := heap.New(heapCfg, func(size int) (heap.Backend, error) {
			return epc.New(size, res, eng, clk)
		})
		if err != nil {
			return nil, err
		}
		d, err := run(h, clk, n)
		if err != nil {
			return nil, err
		}
		inVals = append(inVals, d)
	}
	t.AddTimedRow("GC-in (concrete-in)", inVals)

	addRatioNote(t, "GC-in (concrete-in)", "GC-out (concrete-out)")
	return t, nil
}

// Fig5b demonstrates GC consistency (§6.4, Fig. 5b): proxies are created
// and destroyed in waves in the untrusted runtime, and at every timestamp
// the number of live proxies out of the enclave and the number of mirror
// objects in the in-enclave registry are sampled; the two series must
// track each other.
func Fig5b(opts Options) (*Table, error) {
	w, err := microWorld()
	if err != nil {
		return nil, err
	}
	defer w.Close()

	steps := opts.scale(60, 12)
	perStep := opts.scale(5_000, 200)
	t := &Table{
		ID:      "fig5b",
		Title:   fmt.Sprintf("GC consistency: %d proxies created/destroyed per step", perStep),
		XLabel:  "series \\ timestamp",
		Unit:    "live objects",
		Columns: intColumns(sweep(1, steps, steps)),
	}

	var pinned []wire.Value
	proxiesOut := make([]float64, 0, steps)
	mirrorsIn := make([]float64, 0, steps)
	for step := 0; step < steps; step++ {
		if step < steps/2 {
			// Creation wave: pin the new proxies so they stay live.
			var created []wire.Value
			err := w.Exec(false, func(env classmodel.Env) error {
				for i := 0; i < perStep; i++ {
					ref, err := env.New(microTrusted, wire.Int(int64(step*perStep+i)))
					if err != nil {
						return err
					}
					if err := w.Untrusted().Pin(ref); err != nil {
						return err
					}
					created = append(created, ref)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			pinned = append(pinned, created...)
		} else if len(pinned) >= perStep {
			// Destruction wave: unpin a batch, collect, sweep.
			for _, ref := range pinned[:perStep] {
				if err := w.Untrusted().Unpin(ref); err != nil {
					return nil, err
				}
			}
			pinned = pinned[perStep:]
		}
		if err := w.Untrusted().Collect(); err != nil {
			return nil, err
		}
		if err := w.SweepOnce(w.Untrusted()); err != nil {
			return nil, err
		}
		proxiesOut = append(proxiesOut, float64(w.Untrusted().WeakList().Len()))
		mirrorsIn = append(mirrorsIn, float64(w.Trusted().Registry().Size()))
	}
	t.AddRow("proxy-objs-out", proxiesOut...)
	t.AddRow("mirror-objs-in", mirrorsIn...)

	maxDiff := 0.0
	for i := range proxiesOut {
		d := proxiesOut[i] - mirrorsIn[i]
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	t.AddNote("max |proxies - mirrors| across timeline: %.0f (0 = perfectly consistent)", maxDiff)
	return t, nil
}

// sweep returns n evenly spaced values from lo to hi inclusive.
func sweep(lo, hi, n int) []int {
	if n < 2 {
		return []int{hi}
	}
	out := make([]int, 0, n)
	step := (hi - lo) / (n - 1)
	if step < 1 {
		step = 1
	}
	for v := lo; len(out) < n && v <= hi; v += step {
		out = append(out, v)
	}
	return out
}

func intColumns(vals []int) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = strconv.Itoa(v)
	}
	return out
}

// addRatioNote records the mean ratio between two series.
func addRatioNote(t *Table, num, den string) {
	a, ok1 := t.Row(num)
	b, ok2 := t.Row(den)
	if !ok1 || !ok2 || len(a.Values) != len(b.Values) {
		return
	}
	var sum float64
	n := 0
	for i := range a.Values {
		if b.Values[i] > 0 {
			sum += a.Values[i] / b.Values[i]
			n++
		}
	}
	if n > 0 {
		t.AddNote("mean %s / %s = %.1fx", num, den, sum/float64(n))
	}
}
