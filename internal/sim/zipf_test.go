package sim

import (
	"fmt"
	"math"
	"testing"
)

// binarySearchIndex is the plain inverted-CDF search over the whole
// table: the first rank whose CDF entry is >= u. The guide-table index
// must agree with it for every u in [0, 1).
func (z *Zipf) binarySearchIndex(u float64) int {
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// checkIndex reports whether the guide search and the reference agree
// at u, logging the disagreement if not. It runs tens of millions of
// times per test, so it does not call t.Helper.
func checkIndex(t testing.TB, z *Zipf, alpha, u float64) bool {
	if got, want := z.index(u), z.binarySearchIndex(u); got != want {
		t.Errorf("n=%d alpha=%v u=%v (%#x): index %d, binary search %d",
			z.N(), alpha, u, math.Float64bits(u), got, want)
		return false
	}
	return true
}

// checkAround checks e and the floats either side of it, clipped to
// [0, 1).
func checkAround(t testing.TB, z *Zipf, alpha, e float64) bool {
	for _, u := range [...]float64{math.Nextafter(e, -1), e, math.Nextafter(e, 2)} {
		if u >= 0 && u < 1 && !checkIndex(t, z, alpha, u) {
			return false
		}
	}
	return true
}

func TestZipfGuideMatchesBinarySearch(t *testing.T) {
	ns := []int{1, 2, 3, 7, 16, 64, 65536, 163712, 1<<20 + 3}
	alphas := []float64{0.75, 0.8, 0.85, 1.0, 1.2, 1.5, 1.6}
	const draws = 10_000_000
	perConfig := draws / (len(ns) * len(alphas))
	r := NewRNG(31)
	for _, n := range ns {
		for _, alpha := range alphas {
			z, err := NewZipf(r, n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			// The guide cell changes at the edges g/n and the answer
			// changes at the CDF entries: check both, and their
			// neighbouring floats.
			for g := 0; g <= n; g++ {
				if !checkAround(t, z, alpha, float64(g)/float64(n)) {
					return
				}
			}
			for _, c := range z.cdf {
				if !checkAround(t, z, alpha, c) {
					return
				}
			}
			for _, u := range []float64{0, math.Nextafter(1, 0)} {
				if !checkIndex(t, z, alpha, u) {
					return
				}
			}
			for i := 0; i < perConfig; i++ {
				if !checkIndex(t, z, alpha, r.Float64()) {
					return
				}
			}
		}
	}
}

// TestZipfGuideCellRounding pins the case the bracket widening exists
// for: u = 0.8333333333333333 lies below the edge fl(5/6) =
// 0.8333333333333334, yet u*6 rounds to 5, so u lands in cell 5. With
// a CDF entry equal to u, guide[5] points past the answer.
func TestZipfGuideCellRounding(t *testing.T) {
	u := math.Nextafter(5.0/6, 0)
	if g := int(u * 6); g != 5 {
		t.Fatalf("u*6 floors to cell %d, want the neighbouring cell 5", g)
	}
	cdf := []float64{0.1, 0.2, 0.3, 0.4, u, 1}
	z := &Zipf{cdf: cdf, guide: newGuide(cdf)}
	if z.guide[5] != 5 {
		t.Fatalf("guide[5] = %d, want 5", z.guide[5])
	}
	if got := z.index(u); got != 4 {
		t.Fatalf("index(%v) = %d, want 4", u, got)
	}
}

// TestZipfIndexExactForAnyGuide checks that index does not rely on the
// guide table for exactness: with the table replaced by constant,
// shifted or random entries in [0, n), every draw still matches the
// binary search.
func TestZipfIndexExactForAnyGuide(t *testing.T) {
	r := NewRNG(37)
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		z, err := NewZipf(r, n, 1.2)
		if err != nil {
			t.Fatal(err)
		}
		exact := newGuide(z.cdf)
		for _, corrupt := range []func(g int) int{
			func(int) int { return 0 },
			func(int) int { return n - 1 },
			func(g int) int { return min(int(exact[g])+1, n-1) },
			func(g int) int { return max(int(exact[g])-1, 0) },
			func(int) int { return r.Intn(n) },
		} {
			for g := range z.guide {
				z.guide[g] = int32(corrupt(g))
			}
			for g := 0; g <= n; g++ {
				if !checkAround(t, z, 1.2, float64(g)/float64(n)) {
					return
				}
			}
			for _, c := range z.cdf {
				if !checkAround(t, z, 1.2, c) {
					return
				}
			}
			for i := 0; i < 10_000; i++ {
				if !checkIndex(t, z, 1.2, r.Float64()) {
					return
				}
			}
		}
	}
}

func FuzzZipfIndex(f *testing.F) {
	f.Add(uint16(7), math.Float64bits(0.8), math.Float64bits(0.5))
	f.Add(uint16(65535), math.Float64bits(0.75), math.Float64bits(math.Nextafter(1, 0)))
	f.Add(uint16(0), math.Float64bits(1.6), uint64(0))
	f.Fuzz(func(t *testing.T, n uint16, alphaBits, uBits uint64) {
		alpha := math.Float64frombits(alphaBits)
		z, err := NewZipf(NewRNG(1), int(n)+1, alpha)
		if err != nil {
			t.Skip() // alpha not a positive number
		}
		// Any float in [0, 1) with the sign cleared, else the top 53
		// bits as an RNG-style draw.
		u := math.Float64frombits(uBits &^ (1 << 63))
		if !(u < 1) {
			u = float64(uBits>>11) / (1 << 53)
		}
		checkIndex(t, z, alpha, u)
		n1 := uint64(z.N())
		checkAround(t, z, alpha, float64(uBits%(n1+1))/float64(n1))
		checkAround(t, z, alpha, z.cdf[uBits%n1])
	})
}

// BenchmarkZipfNext times one draw on the three perfbench streams:
// WebSearch1 and dbt2 at 1/16 scale and alpha1 at 1/4.
func BenchmarkZipfNext(b *testing.B) {
	for _, c := range []struct {
		n     int
		alpha float64
	}{{163712, 0.75}, {65536, 0.8}, {65536, 1.0}} {
		b.Run(fmt.Sprintf("n=%d/alpha=%v", c.n, c.alpha), func(b *testing.B) {
			z, err := NewZipf(NewRNG(1), c.n, c.alpha)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += z.Next()
			}
			benchSink = sum
		})
	}
}

var benchSink int
