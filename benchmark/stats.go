package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of sorted (ascending)
// samples: the smallest sample with at least q of the mass at or below
// it. It returns 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile is the highest quantile, capped at p99, that still leaves
// ten samples beyond it; below 20 samples it degrades to the median.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// median sorts a copy of vs and returns its middle value (the mean of
// the two middle values for an even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is (max-min)/median of vs, the harness's own steadiness check.
func spread(vs []float64) float64 {
	m := median(vs)
	if len(vs) == 0 || m == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return (hi - lo) / m
}

// durationsUS sorts ns samples in place and returns them as sorted µs
// of a machine slowdown times faster than the one they were taken on.
func durationsUS(ns []int64, slowdown float64) []float64 {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / 1e3 / slowdown
	}
	return out
}

// ratio is a/b, or 0 when b is 0: per-op shares of counters that did
// not move stay defined.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
