package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"

	"flashdc/internal/sim"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the exclusive
// method (Python's statistics.quantiles(xs, n=4) default). It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	if len(s) < 2 {
		return math.NaN(), math.NaN()
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// relIQR is the distance between the quartiles as a share of the
// median; 0 with fewer than two values.
func relIQR(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailQuantile applies the percentile rule: the highest quantile at
// most want that leaves at least ten of n samples beyond it. It
// returns 0 (the minimum) when n is below ten.
func tailQuantile(n int, want float64) float64 {
	if n < 10 {
		return 0
	}
	return math.Min(want, 1-10/float64(n))
}

// sampleQuantile is the q-quantile of xs by nearest rank.
func sampleQuantile(xs []float64, q float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// histBucketsPerDecade is sim.Histogram's resolution: bucket i > 0
// spans [10^((i-1)/24), 10^(i/24)) nanoseconds.
const histBucketsPerDecade = 24

// quantile estimates the q-quantile of h by interpolating log-linearly
// inside the bucket holding the target rank (the usual histogram
// estimator, accurate to the ~10% bucket width). Histogram.Quantile
// returns the bucket's midpoint instead, which moves only in whole
// bucket steps.
func quantile(h *sim.Histogram, q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := math.Max(1, math.Ceil(q*float64(total)))
	var seen float64
	est := math.NaN()
	h.Each(func(floor sim.Duration, count uint64) {
		c := float64(count)
		if !math.IsNaN(est) || seen+c < rank {
			seen += c
			return
		}
		est = float64(floor) * math.Pow(10, (rank-seen)/c/histBucketsPerDecade)
	})
	return est
}

// histDigest hashes every bucket of h with its count and sum, so two
// histograms compare equal only when they recorded the same samples
// to bucket resolution.
func histDigest(h *sim.Histogram) [32]byte {
	d := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		d.Write(b[:])
	}
	h.Each(func(floor sim.Duration, count uint64) {
		put(uint64(floor))
		put(count)
	})
	put(h.Count())
	put(uint64(h.Sum()))
	var out [32]byte
	copy(out[:], d.Sum(nil))
	return out
}
