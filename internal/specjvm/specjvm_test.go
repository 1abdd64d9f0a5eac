package specjvm

import (
	"math"
	"testing"
)

func TestKernelsComplete(t *testing.T) {
	names := map[string]bool{}
	for _, k := range Kernels() {
		names[k.Name] = true
	}
	for _, want := range []string{"mpegaudio", "fft", "montecarlo", "sor", "lu", "sparse"} {
		if !names[want] {
			t.Fatalf("kernel %s missing", want)
		}
	}
	if len(names) != 6 {
		t.Fatalf("kernels = %v", names)
	}
}

func TestKernelsDeterministic(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			size := k.DefaultSize / 8
			if size < 4 {
				size = 4
			}
			cs1, w1 := k.Run(size)
			cs2, w2 := k.Run(size)
			if cs1 != cs2 {
				t.Fatalf("checksums differ: %v vs %v", cs1, cs2)
			}
			if w1 != w2 {
				t.Fatalf("work profiles differ: %+v vs %+v", w1, w2)
			}
			if w1.BytesTouched <= 0 || w1.AllocBytes <= 0 {
				t.Fatalf("degenerate work profile: %+v", w1)
			}
			if w1.DRAMBytes > w1.BytesTouched {
				t.Fatalf("DRAM traffic exceeds total traffic: %+v", w1)
			}
			if math.IsNaN(cs1) || math.IsInf(cs1, 0) {
				t.Fatalf("checksum = %v", cs1)
			}
		})
	}
}

func TestFFTRoundTripIsAccurate(t *testing.T) {
	// The checksum includes the round-trip RMS error plus a data term;
	// the RMS part must be tiny, so forward+inverse must reconstruct the
	// input. Verify directly.
	n := 1 << 10
	re := make([]float64, n)
	im := make([]float64, n)
	orig := make([]float64, n)
	rng := newLCG(9)
	for i := range re {
		re[i] = rng.float64()
		orig[i] = re[i]
	}
	fftTransform(re, im, false)
	fftTransform(re, im, true)
	for i := range re {
		if math.Abs(re[i]/float64(n)-orig[i]) > 1e-9 {
			t.Fatalf("fft round trip error at %d: %v vs %v", i, re[i]/float64(n), orig[i])
		}
		if math.Abs(im[i]) > 1e-6*float64(n) {
			t.Fatalf("imaginary residue at %d: %v", i, im[i])
		}
	}
}

func TestFFTParsevalEnergy(t *testing.T) {
	// Parseval: sum |x|^2 == (1/N) sum |X|^2.
	n := 1 << 8
	re := make([]float64, n)
	im := make([]float64, n)
	rng := newLCG(3)
	var inputEnergy float64
	for i := range re {
		re[i] = rng.float64() - 0.5
		inputEnergy += re[i] * re[i]
	}
	fftTransform(re, im, false)
	var spectralEnergy float64
	for i := range re {
		spectralEnergy += re[i]*re[i] + im[i]*im[i]
	}
	spectralEnergy /= float64(n)
	if math.Abs(inputEnergy-spectralEnergy) > 1e-8*inputEnergy {
		t.Fatalf("Parseval violated: %v vs %v", inputEnergy, spectralEnergy)
	}
}

func TestMonteCarloConvergesToPi(t *testing.T) {
	pi, _ := MonteCarlo(2_000_000)
	if math.Abs(pi-math.Pi) > 0.01 {
		t.Fatalf("pi estimate = %v", pi)
	}
}

func TestSORConverges(t *testing.T) {
	// SOR smooths the random grid: the checksum (mean) must stay within
	// the initial value range and be finite.
	cs, _ := SOR(64)
	if cs <= 0 || cs >= 1 {
		t.Fatalf("SOR mean = %v, want in (0,1)", cs)
	}
}

func TestLUReconstruction(t *testing.T) {
	// For a diagonally dominant matrix the pivots are all positive and
	// roughly n, so the mean diagonal is near n-ish magnitude. Sanity:
	// finite and positive.
	cs, _ := LU(64)
	if cs <= 0 || math.IsInf(cs, 0) || math.IsNaN(cs) {
		t.Fatalf("LU checksum = %v", cs)
	}
}

func TestSparseProducesFiniteResult(t *testing.T) {
	cs, _ := Sparse(5000)
	if math.IsNaN(cs) || math.IsInf(cs, 0) {
		t.Fatalf("sparse checksum = %v", cs)
	}
}

func TestMpegAudioScalesWithFrames(t *testing.T) {
	_, w1 := MpegAudio(4)
	_, w8 := MpegAudio(8)
	if w8.BytesTouched != 2*w1.BytesTouched {
		t.Fatalf("work does not scale: %d vs %d", w1.BytesTouched, w8.BytesTouched)
	}
}

func TestDegenerateSizes(t *testing.T) {
	// Tiny/invalid sizes must not panic.
	for _, k := range Kernels() {
		if cs, _ := k.Run(1); math.IsNaN(cs) {
			t.Fatalf("%s(1) produced NaN", k.Name)
		}
		if cs, _ := k.Run(0); math.IsNaN(cs) {
			t.Fatalf("%s(0) produced NaN", k.Name)
		}
	}
}

func TestWorkScalesMonotonically(t *testing.T) {
	for _, k := range Kernels() {
		small := k.DefaultSize / 16
		if small < 4 {
			small = 4
		}
		_, ws := k.Run(small)
		_, wl := k.Run(small * 2)
		if wl.BytesTouched <= ws.BytesTouched {
			t.Fatalf("%s: work not monotone: %d -> %d", k.Name, ws.BytesTouched, wl.BytesTouched)
		}
	}
}

// TestLUFactorisationCorrect reconstructs P*A from the in-place L,U
// factors on a small matrix and compares against the original.
func TestLUFactorisationCorrect(t *testing.T) {
	const n = 8
	// Rebuild the same input LU() uses.
	rng := newLCG(99)
	orig := make([][]float64, n)
	for i := range orig {
		orig[i] = make([]float64, n)
		for j := range orig[i] {
			orig[i][j] = rng.float64() - 0.5
		}
		orig[i][i] += float64(n)
	}
	// Re-run the factorisation steps (mirroring LU's algorithm) while
	// tracking the permutation.
	a := make([][]float64, n)
	for i := range a {
		a[i] = append([]float64(nil), orig[i]...)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for j := 0; j < n; j++ {
		p := j
		for i := j + 1; i < n; i++ {
			if math.Abs(a[i][j]) > math.Abs(a[p][j]) {
				p = i
			}
		}
		a[j], a[p] = a[p], a[j]
		perm[j], perm[p] = perm[p], perm[j]
		inv := 1.0 / a[j][j]
		for i := j + 1; i < n; i++ {
			a[i][j] *= inv
			f := a[i][j]
			for k := j + 1; k < n; k++ {
				a[i][k] -= f * a[j][k]
			}
		}
	}
	// Verify L*U == P*orig.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var lu float64
			for k := 0; k <= i && k <= j; k++ {
				l := a[i][k]
				if k == i {
					l = 1
				}
				if k <= j {
					lu += l * a[k][j]
				}
			}
			want := orig[perm[i]][j]
			if math.Abs(lu-want) > 1e-9 {
				t.Fatalf("LU reconstruction (%d,%d): %v != %v", i, j, lu, want)
			}
		}
	}
}
