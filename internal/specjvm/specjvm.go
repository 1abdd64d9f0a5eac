// Package specjvm implements the six SPECjvm2008 micro-benchmarks used in
// the paper's Fig. 12 and Table 1: mpegaudio, fft, monte_carlo, sor, lu
// and sparse.
//
// Five of the kernels are the SciMark 2.0 numerical kernels that
// SPECjvm2008 embeds (scimark.fft, .sor, .monte_carlo, .lu, .sparse); the
// mpegaudio kernel is a polyphase synthesis filterbank plus DCT-32 — the
// dominant computation of MPEG-1 Layer III audio decoding — over
// synthetic PCM data (SPEC's copyrighted audio input is substituted per
// the reproduction rules; see DESIGN.md).
//
// Every kernel performs real computation and returns a checksum (for
// correctness tests) plus a Work profile: the memory traffic and managed
// allocation the equivalent Java workload generates. The profile is what
// the runtime cost models in internal/jvm charge for (MEE traffic for
// bytes touched inside an enclave, GC copy work for allocation).
package specjvm

import (
	"math"
)

// Work profiles the resource demands of one kernel run.
type Work struct {
	// BytesTouched is the total memory traffic of the kernel: bytes
	// streamed through the CPU cache hierarchy.
	BytesTouched int64
	// DRAMBytes estimates the portion of BytesTouched that reaches DRAM
	// (cache misses). Only this traffic crosses the MEE inside an
	// enclave — cached data is plaintext in the CPU package (§2.1) — so
	// cache-resident kernels (SOR, LU) pay far less enclave tax than
	// streaming kernels (FFT at large sizes).
	DRAMBytes int64
	// AllocBytes is the managed-heap allocation the equivalent Java
	// workload performs (boxed values, temporary objects). It drives
	// the GC-cost terms of the runtime models.
	AllocBytes int64
}

// l3CacheBytes is the last-level cache of the paper's Xeon E3-1270
// (§6.1: 8 MB L3); working sets beyond it stream to DRAM.
const l3CacheBytes = 8 << 20

// Kernel is one micro-benchmark.
type Kernel struct {
	// Name matches the paper's label (mpegaudio, fft, montecarlo, sor,
	// lu, sparse).
	Name string
	// DefaultSize is the problem size of the default workload.
	DefaultSize int
	// Run executes the kernel at the given size and returns a checksum
	// and the work profile. Run must be deterministic for a given size.
	Run func(size int) (float64, Work)
}

// Kernels returns the six benchmarks in the paper's order.
func Kernels() []Kernel {
	return []Kernel{
		{Name: "mpegaudio", DefaultSize: 512, Run: MpegAudio},
		{Name: "fft", DefaultSize: 1 << 19, Run: FFT},
		{Name: "montecarlo", DefaultSize: 2_000_000, Run: MonteCarlo},
		{Name: "sor", DefaultSize: 500, Run: SOR},
		{Name: "lu", DefaultSize: 350, Run: LU},
		{Name: "sparse", DefaultSize: 50_000, Run: Sparse},
	}
}

// lcg is the deterministic random source shared by the kernels.
type lcg struct{ state uint64 }

func newLCG(seed uint64) *lcg { return &lcg{state: seed*6364136223846793005 + 1442695040888963407} }

func (r *lcg) next() uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return r.state
}

// float64 returns a uniform value in [0, 1).
func (r *lcg) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// FFT runs a radix-2 complex FFT (forward + inverse) over size complex
// points and reports the round-trip RMS error scaled into a checksum.
// size must be a power of two.
func FFT(size int) (float64, Work) {
	n := size
	if n < 2 || n&(n-1) != 0 {
		n = 1 << 10
	}
	re := make([]float64, n)
	im := make([]float64, n)
	rng := newLCG(42)
	orig := make([]float64, n)
	for i := 0; i < n; i++ {
		re[i] = rng.float64() - 0.5
		orig[i] = re[i]
	}
	fftTransform(re, im, false)
	fftTransform(re, im, true)
	var rms float64
	inv := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		d := re[i]*inv - orig[i]
		rms += d * d
	}
	rms = math.Sqrt(rms / float64(n))
	logN := int64(math.Log2(float64(n)))
	touched := 2 * logN * int64(n) * 16 * 2
	// Beyond the L3 the butterfly passes stream to DRAM; below it only
	// the bit-reversal shuffle misses.
	dram := touched / 10
	if int64(n)*24 > l3CacheBytes {
		dram = touched / 2
	}
	return rms + sum(re)*inv, Work{
		// Two transforms, each log2(n) passes over 2 arrays of 8-byte
		// doubles, read+write.
		BytesTouched: touched,
		DRAMBytes:    dram,
		AllocBytes:   int64(n) * 16, // the complex work arrays
	}
}

func fftTransform(re, im []float64, inverse bool) {
	n := len(re)
	// Bit reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wRe, wIm := math.Cos(ang), math.Sin(ang)
		for i := 0; i < n; i += length {
			curRe, curIm := 1.0, 0.0
			for j := 0; j < length/2; j++ {
				uRe, uIm := re[i+j], im[i+j]
				vRe := re[i+j+length/2]*curRe - im[i+j+length/2]*curIm
				vIm := re[i+j+length/2]*curIm + im[i+j+length/2]*curRe
				re[i+j], im[i+j] = uRe+vRe, uIm+vIm
				re[i+j+length/2], im[i+j+length/2] = uRe-vRe, uIm-vIm
				curRe, curIm = curRe*wRe-curIm*wIm, curRe*wIm+curIm*wRe
			}
		}
	}
}

// SOR runs 10 iterations of successive over-relaxation on a size x size
// grid and returns the grid checksum.
func SOR(size int) (float64, Work) {
	const iterations = 10
	const omega = 1.25
	n := size
	if n < 3 {
		n = 3
	}
	g := make([][]float64, n)
	rng := newLCG(7)
	for i := range g {
		g[i] = make([]float64, n)
		for j := range g[i] {
			g[i][j] = rng.float64()
		}
	}
	oneMinus := 1.0 - omega
	for it := 0; it < iterations; it++ {
		for i := 1; i < n-1; i++ {
			gi := g[i]
			gim := g[i-1]
			gip := g[i+1]
			for j := 1; j < n-1; j++ {
				gi[j] = omega*0.25*(gim[j]+gip[j]+gi[j-1]+gi[j+1]) + oneMinus*gi[j]
			}
		}
	}
	var cs float64
	for i := range g {
		cs += sum(g[i])
	}
	gridBytes := int64(n) * int64(n) * 8
	touched := int64(iterations) * gridBytes * 5
	// A cache-resident grid only misses on the initial load; a larger
	// grid streams every iteration.
	dram := 2 * gridBytes
	if gridBytes > l3CacheBytes {
		dram = int64(iterations) * gridBytes * 2
	}
	return cs / float64(n*n), Work{
		BytesTouched: touched,
		DRAMBytes:    dram,
		AllocBytes:   gridBytes,
	}
}

// MonteCarlo estimates pi from size random samples. The Java workload
// allocates a boxed sample per iteration (SciMark's MonteCarlo integrates
// with a synchronized Random and transient objects), so the allocation
// profile is heavy — the cause of the paper's Table 1 anomaly where the
// native image's serial GC loses to HotSpot (0.25x).
func MonteCarlo(size int) (float64, Work) {
	if size < 1 {
		size = 1
	}
	rng := newLCG(1234)
	hits := 0
	for i := 0; i < size; i++ {
		x := rng.float64() - 0.5
		y := rng.float64() - 0.5
		if x*x+y*y <= 0.25 {
			hits++
		}
	}
	pi := 4 * float64(hits) / float64(size)
	return pi, Work{
		BytesTouched: int64(size) * 16,
		DRAMBytes:    0, // the sampler state is register/cache resident
		// Boxed coordinates plus per-iteration Random/iterator garbage
		// in the Java workload: the allocation-heavy profile behind
		// Table 1's anomaly.
		AllocBytes: int64(size) * 96,
	}
}

// LU factorises a size x size matrix with partial pivoting and returns
// the sum of the diagonal of the factorisation.
func LU(size int) (float64, Work) {
	n := size
	if n < 2 {
		n = 2
	}
	a := make([][]float64, n)
	rng := newLCG(99)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = rng.float64() - 0.5
		}
		a[i][i] += float64(n) // diagonally dominant: stable pivots
	}
	piv := make([]int, n)
	for j := 0; j < n; j++ {
		p := j
		for i := j + 1; i < n; i++ {
			if math.Abs(a[i][j]) > math.Abs(a[p][j]) {
				p = i
			}
		}
		piv[j] = p
		a[j], a[p] = a[p], a[j]
		if a[j][j] == 0 {
			continue
		}
		inv := 1.0 / a[j][j]
		for i := j + 1; i < n; i++ {
			a[i][j] *= inv
			f := a[i][j]
			row := a[i]
			base := a[j]
			for k := j + 1; k < n; k++ {
				row[k] -= f * base[k]
			}
		}
	}
	var cs float64
	for i := 0; i < n; i++ {
		cs += a[i][i]
	}
	touched := int64(n) * int64(n) * int64(n) / 3 * 16
	matBytes := int64(n) * int64(n) * 8
	dram := touched / 10
	if matBytes > l3CacheBytes {
		dram = touched / 2
	}
	return cs / float64(n), Work{
		BytesTouched: touched,
		DRAMBytes:    dram,
		AllocBytes:   matBytes + int64(n)*8,
	}
}

// Sparse multiplies a compressed-row sparse matrix (about 5 nonzeros per
// row) with a dense vector for 25 iterations.
func Sparse(size int) (float64, Work) {
	const iterations = 25
	const nzPerRow = 5
	n := size
	if n < 1 {
		n = 1
	}
	nz := n * nzPerRow
	val := make([]float64, nz)
	col := make([]int, nz)
	rowPtr := make([]int, n+1)
	rng := newLCG(555)
	for i := 0; i < n; i++ {
		rowPtr[i] = i * nzPerRow
		for k := 0; k < nzPerRow; k++ {
			idx := i*nzPerRow + k
			val[idx] = rng.float64()
			col[idx] = int(rng.next() % uint64(n))
		}
	}
	rowPtr[n] = nz
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1.0 / float64(i+1)
	}
	for it := 0; it < iterations; it++ {
		for i := 0; i < n; i++ {
			var s float64
			for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
				s += val[k] * x[col[k]]
			}
			y[i] = s
		}
		x, y = y, x
	}
	touched := int64(iterations) * int64(nz) * 28 // val + col + x gather + y
	dram := touched * 15 / 100                    // random gathers miss; the rest streams from cache
	if int64(n)*8 > l3CacheBytes {
		dram = touched / 2
	}
	return sum(x) / float64(n), Work{
		BytesTouched: touched,
		DRAMBytes:    dram,
		AllocBytes:   int64(nz)*12 + int64(n)*24,
	}
}

// MpegAudio decodes size frames of synthetic PCM through the dominant
// MPEG-1 Layer III decode computation: a DCT-32 subband analysis followed
// by a 512-tap polyphase synthesis window per frame.
func MpegAudio(frames int) (float64, Work) {
	const (
		subbands   = 32
		granule    = 36 // samples per subband per frame
		windowTaps = 512
	)
	if frames < 1 {
		frames = 1
	}
	window := make([]float64, windowTaps)
	for i := range window {
		// The D[] synthesis window shape (approximated analytically).
		window[i] = math.Sin(math.Pi*float64(i)/float64(windowTaps)) / float64(subbands)
	}
	fifo := make([]float64, windowTaps)
	in := make([]float64, subbands)
	out := make([]float64, subbands)
	rng := newLCG(2021)
	var cs float64
	for f := 0; f < frames; f++ {
		for g := 0; g < granule; g++ {
			for s := 0; s < subbands; s++ {
				in[s] = rng.float64() - 0.5
			}
			dct32(in, out)
			// Shift the synthesis FIFO and apply the window.
			copy(fifo[subbands:], fifo[:windowTaps-subbands])
			copy(fifo[:subbands], out)
			for s := 0; s < subbands; s++ {
				var acc float64
				for t := s; t < windowTaps; t += subbands {
					acc += fifo[t] * window[t]
				}
				cs += acc
			}
		}
	}
	work := int64(frames) * granule * (subbands*subbands*16 + windowTaps*16)
	return cs / float64(frames), Work{
		BytesTouched: work,
		DRAMBytes:    work / 20, // the FIFO and window are cache resident
		AllocBytes:   int64(frames) * granule * subbands * 16,
	}
}

// dct32 computes a 32-point DCT-II directly (the butterfly-optimised
// versions compute the same values).
func dct32(in, out []float64) {
	for k := 0; k < 32; k++ {
		var acc float64
		for n := 0; n < 32; n++ {
			acc += in[n] * math.Cos(math.Pi/32*(float64(n)+0.5)*float64(k))
		}
		out[k] = acc
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
