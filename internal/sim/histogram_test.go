package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zero")
	}
	if h.String() != "histogram{empty}" {
		t.Fatalf("String = %q", h.String())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(100 * Microsecond)
	if h.Count() != 1 || h.Mean() != 100*Microsecond {
		t.Fatal("single sample bookkeeping wrong")
	}
	if h.Min() != 100*Microsecond || h.Max() != 100*Microsecond {
		t.Fatal("extremes wrong")
	}
	q := h.Quantile(0.5)
	if q != 100*Microsecond { // clamped to observed extremes
		t.Fatalf("median of one sample = %v", q)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	rng := NewRNG(1)
	var samples []Duration
	for i := 0; i < 50000; i++ {
		// Bimodal: DRAM-ish fast path and flash-ish slow path.
		var d Duration
		if rng.Bool(0.8) {
			d = Duration(500 + rng.Intn(500))
		} else {
			d = Duration(40_000 + rng.Intn(40_000))
		}
		h.Observe(d)
		samples = append(samples, d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		want := float64(samples[int(q*float64(len(samples)))-1])
		got := float64(h.Quantile(q))
		if rel := math.Abs(got-want) / want; rel > 0.15 {
			t.Fatalf("q=%v: got %v want %v (rel err %.2f)", q, got, want, rel)
		}
	}
}

func TestHistogramZeroAndHugeValues(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(Duration(3600) * Second)
	if h.Count() != 2 {
		t.Fatal("count wrong")
	}
	if h.Quantile(1.0) < Duration(3000)*Second {
		t.Fatalf("p100 = %v", h.Quantile(1.0))
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	// Out-of-range quantiles clamp to the observed extremes instead of
	// panicking; NaN behaves like q <= 0.
	var h Histogram
	h.Observe(10)
	h.Observe(90_000)
	for _, tc := range []struct {
		q    float64
		want Duration
	}{
		{0, 10}, {-1, 10}, {math.NaN(), 10},
		{1.5, 90_000}, {2, 90_000},
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// An empty histogram is defined for every q.
	var empty Histogram
	for _, q := range []float64{-1, 0, 0.5, 1, 2, math.NaN()} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	// Split one sample stream across three histograms; the merge must
	// report exactly what a single histogram observing everything does.
	var whole Histogram
	parts := [3]Histogram{}
	rng := NewRNG(7)
	for i := 0; i < 30000; i++ {
		var d Duration
		if rng.Bool(0.7) {
			d = Duration(200 + rng.Intn(2000))
		} else {
			d = Duration(50_000 + rng.Intn(100_000))
		}
		whole.Observe(d)
		parts[i%3].Observe(d)
	}
	var merged Histogram
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged.Count() != whole.Count() || merged.Mean() != whole.Mean() {
		t.Fatalf("count/mean: merged %d/%v, whole %d/%v",
			merged.Count(), merged.Mean(), whole.Count(), whole.Mean())
	}
	if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("extremes: merged [%v,%v], whole [%v,%v]",
			merged.Min(), merged.Max(), whole.Min(), whole.Max())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1.0} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("q=%v: merged %v, whole %v", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
	if merged.String() != whole.String() {
		t.Fatalf("String: merged %q, whole %q", merged.String(), whole.String())
	}
}

func TestHistogramMergeEdgeCases(t *testing.T) {
	var h Histogram
	h.Observe(10)
	h.Merge(nil)
	h.Merge(&Histogram{})
	if h.Count() != 1 || h.Min() != 10 || h.Max() != 10 {
		t.Fatal("nil/empty merge disturbed the receiver")
	}
	// Merging into an empty histogram adopts the other's extremes even
	// when they include zero-duration samples.
	var src Histogram
	src.Observe(0)
	src.Observe(5)
	var dst Histogram
	dst.Merge(&src)
	if dst.Count() != 2 || dst.Min() != 0 || dst.Max() != 5 {
		t.Fatalf("empty-receiver merge: n=%d min=%v max=%v", dst.Count(), dst.Min(), dst.Max())
	}
}

func TestHistogramMonotoneQuantiles(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Observe(Duration(v % 1_000_000))
		}
		prev := Duration(-1)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBucketOfMatchesLogDefinition checks the table-driven bucketOf
// against the floating-point definition at every bucket boundary and
// one either side, at every power of two and one either side, and
// across a deterministic sample of the whole positive range.
func TestBucketOfMatchesLogDefinition(t *testing.T) {
	check := func(d Duration) {
		t.Helper()
		if got, want := bucketOf(d), logBucket(d); got != want {
			t.Fatalf("bucketOf(%d) = %d, logBucket says %d", d, got, want)
		}
	}
	for _, d := range []Duration{math.MinInt64, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64} {
		check(d)
	}
	for i := 1; i <= topBucket; i++ {
		b := bucketStart[i]
		if b > 1 && logBucket(b-1) >= i {
			t.Fatalf("bucket %d starts at %d, but %d already maps to %d", i, b, b-1, logBucket(b-1))
		}
		for _, d := range []Duration{b - 1, b, b + 1} {
			if d > 0 {
				check(d)
			}
		}
	}
	for n := 0; n < 63; n++ {
		p := Duration(1) << n
		check(p - 1)
		check(p)
		check(p + 1)
	}
	rng := NewRNG(1)
	for i := 0; i < 1_000_000; i++ {
		check(Duration(rng.Uint64() >> (1 + rng.Intn(63))))
	}
}
