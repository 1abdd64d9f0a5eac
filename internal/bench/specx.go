package bench

import (
	"montsalvat/internal/jvm"
	"montsalvat/internal/specjvm"
)

// specModels is the Fig. 12 configuration order.
var specModels = []jvm.Model{jvm.NoSGXJVM, jvm.NoSGXNI, jvm.SGXNI, jvm.SCONEJVM}

// specSize picks the kernel problem size for the options.
func specSize(opts Options, k specjvm.Kernel) int {
	if opts.Quick {
		size := k.DefaultSize / 16
		if size < 4 {
			size = 4
		}
		return size
	}
	return k.DefaultSize
}

// Fig12 regenerates the SPECjvm2008 micro-benchmark comparison (§6.6,
// Fig. 12): each kernel under NoSGX+JVM, NoSGX-NI, SGX-NI and SCONE+JVM.
func Fig12(opts Options) (*Table, error) {
	kernels := specjvm.Kernels()
	columns := make([]string, len(kernels))
	for i, k := range kernels {
		columns[i] = k.Name
	}
	t := &Table{
		ID:      "fig12",
		Title:   "SPECjvm2008 micro-benchmarks across runtime configurations",
		XLabel:  "config \\ kernel",
		Unit:    "seconds",
		Columns: columns,
	}
	runner := jvm.NewRunner(0)
	// Measure each kernel once; apply every model to the same base so
	// the comparison is free of run-to-run noise.
	measurements := make([]jvm.Measurement, len(kernels))
	for i, k := range kernels {
		measurements[i] = runner.Measure(k, specSize(opts, k))
	}
	for _, m := range specModels {
		values := make([]timing, 0, len(kernels))
		for _, meas := range measurements {
			res := runner.ApplyTo(m, meas)
			values = append(values, timing{elapsed: res.Duration, cycles: res.Overheads.Charged()})
		}
		t.AddTimedRow(m.String(), values)
	}
	return t, nil
}

// Table1 regenerates the paper's Table 1: the latency gain of
// unpartitioned native images in enclaves (SGX-NI) over their on-JVM
// counterparts in SCONE (SCONE+JVM). The paper's values are mpegaudio
// 2.12x, fft 2.66x, montecarlo 0.25x, sor 1.42x, lu 1.46x, sparse 1.38x.
func Table1(opts Options) (*Table, error) {
	kernels := specjvm.Kernels()
	columns := make([]string, len(kernels))
	for i, k := range kernels {
		columns[i] = k.Name
	}
	t := &Table{
		ID:      "table1",
		Title:   "Latency gain of SGX-NI over SCONE+JVM",
		XLabel:  "metric \\ kernel",
		Unit:    "speedup (x)",
		Columns: columns,
	}
	runner := jvm.NewRunner(0)
	gains := make([]float64, 0, len(kernels))
	for _, k := range kernels {
		meas := runner.Measure(k, specSize(opts, k))
		ni := runner.ApplyTo(jvm.SGXNI, meas)
		scone := runner.ApplyTo(jvm.SCONEJVM, meas)
		gains = append(gains, float64(scone.Overheads.Total())/float64(ni.Overheads.Total()))
	}
	t.AddRow("gain over SCONE+JVM", gains...)
	t.AddRow("paper", 2.12, 2.66, 0.25, 1.42, 1.46, 1.38)
	t.AddNote("shape check: all kernels except montecarlo must show gain > 1; montecarlo < 1")
	return t, nil
}
