package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs:
// the smallest sample with at least q·n samples at or below it. xs
// need not be sorted; it is not modified. Empty input gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[min(max(rank(q, len(s)), 1), len(s))-1]
}

// rank is the nearest rank ⌈q·n⌉, computed so that float rounding
// cannot push an exact product such as 0.9·100 up to the next rank.
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tailRank is the highest of the usual tail percentiles that still
// has at least ten samples beyond it among n samples, so a reported
// tail never rests on a handful of outliers. Below 40 samples nothing
// qualifies and the median is the tail.
func tailRank(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.75} {
		if n-rank(q, n) >= 10 {
			return q
		}
	}
	return 0.5
}

// quartiles returns the first, second and third quartile of xs by the
// method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match that function.
// One sample gives that sample three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
