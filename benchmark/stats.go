package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks — the definition numpy and Python's
// statistics "inclusive" method use. It returns 0 for an empty sample so
// that a class absent from a workload reports 0, not NaN. xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := math.Floor(pos)
	if int(lo) >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - lo
	return s[int(lo)] + frac*(s[int(lo)+1]-s[int(lo)])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first quartile, the median and the third quartile
// the way Python's statistics.quantiles(xs, n=4) does (the "exclusive"
// method: positions at i·(n+1)/4), which is the rule the driver applies to
// the ten-seed spread. Fewer than two values have no spread: all three are
// the single value (or 0).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		n := len(s)
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median, the
// steadiness measure the bounds in BENCHMARK.json are sized against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
