package bench

import (
	"fmt"
	"strconv"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/heap"
	"montsalvat/internal/specjvm"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// synthVariant selects the per-class workload of the Fig. 6 program
// generator (§6.5: each class's instance method performs either CPU
// intensive operations — an FFT on a 1 MB double array — or I/O intensive
// operations — 4 KB file writes).
type synthVariant int

const (
	synthCPU synthVariant = iota + 1
	synthIO
)

// synthProgram generates a Java-program-generator application (§6.5): W
// work classes, the first `trusted` of them annotated @Trusted and the
// rest @Untrusted, each exposing a work() method; main instantiates every
// class and invokes its method.
func synthProgram(classes, trusted int, variant synthVariant, fftSize, ioWrites int) (*classmodel.Program, error) {
	p := classmodel.NewProgram()
	names := make([]string, classes)
	for i := 0; i < classes; i++ {
		names[i] = "Work" + strconv.Itoa(i)
		ann := classmodel.Untrusted
		if i < trusted {
			ann = classmodel.Trusted
		}
		c := classmodel.NewClass(names[i], ann)
		if err := c.AddMethod(&classmodel.Method{
			Name: classmodel.CtorName, Public: true,
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				return wire.Null(), nil
			},
		}); err != nil {
			return nil, err
		}
		file := names[i] + ".out"
		if err := c.AddMethod(&classmodel.Method{
			Name: "work", Public: true, Returns: wire.KindFloat,
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				switch variant {
				case synthCPU:
					// FFT on a ~1 MB double array; the transform's DRAM
					// traffic and the array allocation pay MEE cost when
					// this class runs inside the enclave.
					cs, work := specjvm.FFT(fftSize)
					env.MemTouch(int(work.DRAMBytes) + int(work.AllocBytes))
					return wire.Float(cs), nil
				default:
					buf := make([]byte, 4096)
					for w := 0; w < ioWrites; w++ {
						if _, err := env.FS().Append(file, buf); err != nil {
							return wire.Value{}, err
						}
					}
					return wire.Float(0), nil
				}
			},
		}); err != nil {
			return nil, err
		}
		if err := p.AddClass(c); err != nil {
			return nil, err
		}
	}

	// Anchor keeps the trusted image buildable when every work class is
	// untrusted (the 100% point).
	anchor := classmodel.NewClass("SynthAnchor", classmodel.Trusted)
	if err := anchor.AddMethod(&classmodel.Method{
		Name: "noop", Public: true, Static: true,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return wire.Null(), nil
		},
	}); err != nil {
		return nil, err
	}
	if err := p.AddClass(anchor); err != nil {
		return nil, err
	}

	mainC := classmodel.NewClass("SynthMain", classmodel.Untrusted)
	mm := &classmodel.Method{
		Name: classmodel.MainMethodName, Static: true, Public: true,
		Allocates: append([]string(nil), names...),
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			for _, name := range names {
				obj, err := env.New(name)
				if err != nil {
					return wire.Value{}, err
				}
				if _, err := env.Call(obj, "work"); err != nil {
					return wire.Value{}, err
				}
			}
			return wire.Null(), nil
		},
	}
	for _, name := range names {
		mm.Calls = append(mm.Calls, classmodel.MethodRef{Class: name, Method: "work"})
	}
	if err := mainC.AddMethod(mm); err != nil {
		return nil, err
	}
	if err := p.AddClass(mainC); err != nil {
		return nil, err
	}
	p.MainClass = "SynthMain"
	return p, nil
}

// Fig6 runs the synthetic partitioning sweep (§6.5, Fig. 6): total
// application runtime as the percentage of untrusted classes grows, for
// the CPU-intensive and I/O-intensive variants.
func Fig6(opts Options) (*Table, error) {
	classes := opts.scale(100, 10)
	fftSize := opts.scale(1<<16, 1<<11) // ~1 MB of doubles at full scale
	ioWrites := opts.scale(50, 8)
	var pcts []int
	if opts.Quick {
		pcts = []int{0, 50, 100}
	} else {
		pcts = []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	}

	t := &Table{
		ID:      "fig6",
		Title:   fmt.Sprintf("Synthetic %d-class application runtime vs %% untrusted classes", classes),
		XLabel:  "variant \\ % untrusted",
		Unit:    "seconds",
		Columns: intColumns(pcts),
	}

	for _, variant := range []struct {
		kind synthVariant
		name string
	}{
		{kind: synthCPU, name: "CPU-intensive"},
		{kind: synthIO, name: "I/O-intensive"},
	} {
		values := make([]timing, 0, len(pcts))
		for _, pct := range pcts {
			trusted := classes - classes*pct/100
			prog, err := synthProgram(classes, trusted, variant.kind, fftSize, ioWrites)
			if err != nil {
				return nil, err
			}
			wopts := world.DefaultOptions()
			wopts.TrustedHeap = heap.Config{InitialSemi: 4 << 20, MaxSemi: 512 << 20}
			wopts.UntrustedHeap = heap.Config{InitialSemi: 4 << 20, MaxSemi: 512 << 20}
			w, _, err := core.NewPartitionedWorld(prog, wopts)
			if err != nil {
				return nil, fmt.Errorf("fig6 %s pct=%d: %w", variant.name, pct, err)
			}
			m := startMeter(w.Clock())
			if _, err := w.RunMain(); err != nil {
				w.Close()
				return nil, fmt.Errorf("fig6 %s pct=%d: %w", variant.name, pct, err)
			}
			values = append(values, m.stop())
			w.Close()
		}
		t.AddTimedRow(variant.name, values)
		if first, last := values[0].elapsed.Seconds(), values[len(values)-1].elapsed.Seconds(); last > 0 {
			t.AddNote("%s: 0%% untrusted / 100%% untrusted = %.2fx", variant.name, first/last)
		}
	}
	return t, nil
}
