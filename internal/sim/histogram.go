package sim

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Histogram accumulates durations into logarithmic buckets (about 12
// per decade) for percentile reporting without storing samples. The
// zero value is ready to use.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    Duration
	min    Duration
	max    Duration
}

// bucketsPerDecade controls resolution: relative error per bucket is
// 10^(1/12)-1 ~ 21%... kept fine enough with 12 sub-buckets (~9%).
const bucketsPerDecade = 24

// logBucket is the definition of a duration's bucket index. It is
// evaluated only at init, to build the tables bucketOf reads.
func logBucket(d Duration) int {
	if d <= 0 {
		return 0
	}
	return 1 + int(math.Log10(float64(d))*bucketsPerDecade)
}

var (
	// topBucket is the bucket of the largest duration.
	topBucket = logBucket(math.MaxInt64)
	// bucketStart[i] is the smallest duration logBucket maps to
	// bucket i or above (i >= 1).
	bucketStart = make([]Duration, topBucket+1)
	// bucketAtLen[n] is the bucket of the smallest duration n bits
	// long, 2^(n-1).
	bucketAtLen [64]int
)

func init() {
	for i := 1; i <= topBucket; i++ {
		lo, hi := Duration(1), Duration(math.MaxInt64)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if logBucket(mid) >= i {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		bucketStart[i] = lo
	}
	for n := 1; n < len(bucketAtLen); n++ {
		bucketAtLen[n] = bucketScan(1, Duration(1)<<(n-1))
	}
}

// bucketScan returns d's bucket, stepping up from bucket i, which must
// not lie above it.
func bucketScan(i int, d Duration) int {
	for i < topBucket && d >= bucketStart[i+1] {
		i++
	}
	return i
}

// bucketOf maps a duration to its bucket index, exactly as logBucket
// does: the bit length finds the bucket of the enclosing power of two,
// and at most a handful of boundary compares finish the job.
func bucketOf(d Duration) int {
	if d <= 0 {
		return 0
	}
	return bucketScan(bucketAtLen[bits.Len64(uint64(d))], d)
}

// bucketFloor returns the smallest duration mapping to bucket i.
func bucketFloor(i int) Duration {
	if i == 0 {
		return 0
	}
	return Duration(math.Pow(10, float64(i-1)/bucketsPerDecade))
}

// Observe records one sample.
func (h *Histogram) Observe(d Duration) {
	i := bucketOf(d)
	if i >= len(h.counts) {
		grown := make([]uint64, i+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	h.total++
	h.sum += d
	if h.total == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Merge folds other's samples into h: afterwards h reports exactly
// what it would had it observed every sample of both histograms. Used
// to combine per-shard latency profiles into one report; merging is
// associative and commutative, so any fold order gives the same
// result. A nil or empty other is a no-op.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	if len(other.counts) > len(h.counts) {
		grown := make([]uint64, len(other.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.total += other.total
	h.sum += other.sum
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the total of all samples.
func (h *Histogram) Sum() Duration { return h.sum }

// Each calls fn for every non-empty bucket, smallest first, with the
// bucket's floor (the smallest duration mapping to it) and its count.
// It lets observers re-bucket the profile without exposing the
// internal layout.
func (h *Histogram) Each(fn func(floor Duration, count uint64)) {
	for i, c := range h.counts {
		if c > 0 {
			fn(bucketFloor(i), c)
		}
	}
}

// Mean returns the average sample, zero when empty.
func (h *Histogram) Mean() Duration {
	if h.total == 0 {
		return 0
	}
	return Duration(uint64(h.sum) / h.total)
}

// Min and Max return the observed extremes (zero when empty).
func (h *Histogram) Min() Duration { return h.min }

// Max returns the largest observed sample.
func (h *Histogram) Max() Duration { return h.max }

// Quantile returns an approximation of the q-quantile, accurate to the
// bucket resolution (~10%). Every input has a defined result: an empty
// histogram yields 0 for any q, out-of-range quantiles clamp to the
// observed extremes (q <= 0 yields Min, q > 1 yields Max), and a
// histogram whose samples all landed in one bucket yields a value
// within [Min, Max] (exactly the sample when Min == Max).
func (h *Histogram) Quantile(q float64) Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 || math.IsNaN(q) {
		return h.min
	}
	if q > 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			// Return the geometric midpoint of the bucket, clamped
			// to the observed extremes.
			lo := bucketFloor(i)
			hi := bucketFloor(i + 1)
			mid := Duration(math.Sqrt(float64(lo+1) * float64(hi+1)))
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// String summarises the distribution. It never panics: an empty
// histogram formats as "histogram{empty}".
func (h *Histogram) String() string {
	if h.total == 0 {
		return "histogram{empty}"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.total, h.Mean(), h.Quantile(0.50), h.Quantile(0.95),
		h.Quantile(0.99), h.max)
	return b.String()
}
