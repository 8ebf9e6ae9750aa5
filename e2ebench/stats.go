package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile
// for it to count as measured rather than as a guess at the tail.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of vals, which it sorts in place. It returns 0 for no samples.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[rank(len(vals), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples ranked strictly above the p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailMeasured reports whether n samples put at least minTail of them
// beyond the p-th percentile.
func tailMeasured(n int, p float64) bool { return beyond(n, p) >= minTail }

// median returns the median of vals without reordering them; the
// midpoint of the two middle values for an even count.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
