package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: values below smallCutoff get one exact
// bucket each; above, each power-of-two octave is split into
// subPerOctave linear sub-buckets, bounding the relative quantile error
// at 1/subPerOctave (12.5%) with a fixed 4 KiB of atomic counters and
// no per-sample allocation.
const (
	smallCutoff  = 16 // exact buckets for values 0..15
	subPerOctave = 8
	firstOctave  = 4 // log2(smallCutoff)
	numBuckets   = smallCutoff + (64-firstOctave)*subPerOctave
)

// Histogram is a log-bucketed distribution of non-negative int64
// observations (latencies in nanoseconds, cycle counts, byte sizes).
// All methods are safe for concurrent use; a nil *Histogram discards
// observations.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
}

// NewHistogram returns an empty histogram not attached to a registry —
// for standalone aggregation (e.g. the load generator's latencies).
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a value to its bucket.
func bucketIndex(v int64) int {
	if v < smallCutoff {
		return int(v)
	}
	octave := bits.Len64(uint64(v)) - 1 // >= firstOctave
	sub := int((uint64(v) >> (uint(octave) - 3)) & (subPerOctave - 1))
	return smallCutoff + (octave-firstOctave)*subPerOctave + sub
}

// bucketUpper returns the inclusive upper bound of a bucket — the value
// reported for quantiles landing in it.
func bucketUpper(i int) int64 {
	if i < smallCutoff {
		return int64(i)
	}
	i -= smallCutoff
	octave := uint(firstOctave + i/subPerOctave)
	sub := int64(i % subPerOctave)
	return int64(1)<<octave + (sub+1)<<(octave-3) - 1
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Max returns the exact largest observation (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile returns an upper bound on the q-quantile (q in (0,1]),
// accurate to the bucket width (≤12.5% relative error above 16) and
// clamped to the exact observed maximum. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	rank := uint64(q*float64(total) + 0.5)
	if rank == 0 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			upper := bucketUpper(i)
			if m := h.max.Load(); upper > m {
				return m
			}
			return upper
		}
	}
	return h.max.Load()
}

// QuantileDuration is Quantile for nanosecond observations.
func (h *Histogram) QuantileDuration(q float64) time.Duration {
	return time.Duration(h.Quantile(q))
}

// BucketCount is one non-empty bucket of a histogram snapshot.
type BucketCount struct {
	// Upper is the inclusive upper bound of the bucket.
	Upper int64 `json:"upper"`
	// Count is the number of observations in the bucket.
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram, with
// derived quantiles, suitable for JSON encoding.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     int64         `json:"sum"`
	Max     int64         `json:"max"`
	P50     int64         `json:"p50"`
	P95     int64         `json:"p95"`
	P99     int64         `json:"p99"`
	P999    int64         `json:"p999"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot copies the histogram state. Concurrent observations may be
// partially reflected (count, sum and buckets are read independently);
// the snapshot is internally near-consistent, never corrupt.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
	for i := 0; i < numBuckets; i++ {
		if c := h.buckets[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Upper: bucketUpper(i), Count: c})
		}
	}
	return s
}
