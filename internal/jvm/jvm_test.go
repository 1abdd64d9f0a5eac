package jvm

import (
	"testing"

	"montsalvat/internal/specjvm"
)

func TestModelStrings(t *testing.T) {
	tests := []struct {
		m    Model
		want string
	}{
		{NoSGXJVM, "NoSGX+JVM"},
		{NoSGXNI, "NoSGX-NI"},
		{SGXNI, "SGX-NI"},
		{SCONEJVM, "SCONE+JVM"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("%+v.String() = %q, want %q", tt.m, got, tt.want)
		}
	}
}

func TestInEnclave(t *testing.T) {
	if NoSGXNI.InEnclave() || NoSGXJVM.InEnclave() {
		t.Fatal("native models claim enclave")
	}
	if !SGXNI.InEnclave() || !SCONEJVM.InEnclave() {
		t.Fatal("enclave models deny enclave")
	}
}

func TestApplyOverheadStructure(t *testing.T) {
	w := specjvm.Work{BytesTouched: 1 << 30, DRAMBytes: 1 << 28, AllocBytes: 1 << 24}
	base := int64(1_000_000_000)

	ni := NoSGXNI.Apply(base, w, 0)
	if ni.Startup != 0 || ni.Interp != 0 || ni.MEE != 0 || ni.Syscalls != 0 {
		t.Fatalf("NoSGX-NI overheads: %+v", ni)
	}
	if ni.GC == 0 {
		t.Fatal("NoSGX-NI has no GC cost")
	}

	jvmNative := NoSGXJVM.Apply(base, w, 0)
	if jvmNative.Startup == 0 || jvmNative.Interp == 0 {
		t.Fatalf("NoSGX+JVM missing JVM overheads: %+v", jvmNative)
	}
	if jvmNative.MEE != 0 {
		t.Fatal("native JVM charged MEE")
	}

	sgxNI := SGXNI.Apply(base, w, 0)
	if sgxNI.MEE == 0 {
		t.Fatal("SGX-NI has no MEE cost")
	}
	if sgxNI.GC <= ni.GC {
		t.Fatal("enclave GC not dearer than native GC")
	}

	scone := SCONEJVM.Apply(base, w, 100)
	if scone.Syscalls == 0 {
		t.Fatal("SCONE has no syscall cost")
	}
	// Heap inflation: the JVM's enclave MEE traffic exceeds the NI's.
	if scone.MEE <= sgxNI.MEE {
		t.Fatalf("JVM heap inflation missing: scone MEE %d <= NI MEE %d", scone.MEE, sgxNI.MEE)
	}
}

func TestOrderingForComputeBoundWork(t *testing.T) {
	// Compute-bound workload (little traffic/allocation): the paper's
	// ordering NoSGX-NI <= SGX-NI <= SCONE+JVM must hold, with
	// NoSGX+JVM between the native and SCONE extremes.
	w := specjvm.Work{BytesTouched: 1 << 24, DRAMBytes: 1 << 20, AllocBytes: 1 << 18}
	base := int64(2_000_000_000)
	totals := map[string]int64{}
	for _, m := range []Model{NoSGXNI, NoSGXJVM, SGXNI, SCONEJVM} {
		totals[m.String()] = m.Apply(base, w, 0).Total()
	}
	if !(totals["NoSGX-NI"] < totals["SGX-NI"]) {
		t.Fatalf("NoSGX-NI %d !< SGX-NI %d", totals["NoSGX-NI"], totals["SGX-NI"])
	}
	if !(totals["SGX-NI"] < totals["SCONE+JVM"]) {
		t.Fatalf("SGX-NI %d !< SCONE+JVM %d", totals["SGX-NI"], totals["SCONE+JVM"])
	}
	if !(totals["NoSGX-NI"] < totals["NoSGX+JVM"]) {
		t.Fatalf("NoSGX-NI %d !< NoSGX+JVM %d", totals["NoSGX-NI"], totals["NoSGX+JVM"])
	}
	if !(totals["NoSGX+JVM"] < totals["SCONE+JVM"]) {
		t.Fatalf("NoSGX+JVM %d !< SCONE+JVM %d", totals["NoSGX+JVM"], totals["SCONE+JVM"])
	}
}

func TestAllocationHeavyWorkFavoursJVM(t *testing.T) {
	// Table 1's Monte-Carlo anomaly: with an allocation-dominated
	// profile, SGX-NI must be SLOWER than SCONE+JVM.
	w := specjvm.Work{BytesTouched: 1 << 25, DRAMBytes: 0, AllocBytes: 800 << 20}
	base := int64(100_000_000)
	ni := SGXNI.Apply(base, w, 0).Total()
	scone := SCONEJVM.Apply(base, w, 0).Total()
	if ni <= scone {
		t.Fatalf("SGX-NI %d <= SCONE+JVM %d; anomaly not reproduced", ni, scone)
	}
}

func TestRunnerProducesResults(t *testing.T) {
	r := NewRunner(0)
	k, err := specjvm.KernelByName("sor")
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run(SGXNI, k, 64)
	if res.Kernel != "sor" || res.Size != 64 {
		t.Fatalf("result meta: %+v", res)
	}
	if res.Duration <= 0 || res.WallBase <= 0 {
		t.Fatalf("durations: %+v", res)
	}
	if res.Overheads.Total() <= res.Overheads.Base {
		t.Fatal("SGX model charged no overhead")
	}
	// Default size kicks in for size <= 0.
	res2 := r.Run(NoSGXNI, k, 0)
	if res2.Size != k.DefaultSize {
		t.Fatalf("default size = %d", res2.Size)
	}
}

func TestTable1Shape(t *testing.T) {
	// Run all six kernels at reduced sizes and verify the Table 1
	// qualitative shape: every kernel beats SCONE+JVM under SGX-NI
	// except montecarlo, which loses. Each kernel is measured once and
	// both models are applied to that one measurement, so the two share
	// one Base and the gain compares the models, not two host timings.
	r := NewRunner(0)
	for _, k := range specjvm.Kernels() {
		meas := r.Measure(k, k.DefaultSize/4)
		ni := r.ApplyTo(SGXNI, meas)
		scone := r.ApplyTo(SCONEJVM, meas)
		gain := float64(scone.Overheads.Total()) / float64(ni.Overheads.Total())
		if k.Name == "montecarlo" {
			if gain >= 1 {
				t.Errorf("%s: gain = %.2f, want < 1 (paper: 0.25)", k.Name, gain)
			}
		} else if gain <= 1 {
			t.Errorf("%s: gain = %.2f, want > 1", k.Name, gain)
		}
	}
}
