package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minTailSamples is the smallest sample count a p95 is reported from:
// with the nearest-rank convention it leaves at least ten samples
// beyond the percentile, so one outlier cannot set it.
const minTailSamples = 200

// errFewSamples refuses a tail percentile taken from too few samples.
var errFewSamples = errors.New("too few samples for a tail percentile")

// percentile returns the nearest-rank p-th percentile of xs: the
// smallest sample with at least p% of the samples at or below it, i.e.
// sorted[ceil(p/100·n)−1]. Percentiles above the median need
// minTailSamples samples. xs is not modified.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if p > 50 && n < minTailSamples {
		return 0, fmt.Errorf("p%g of %d samples: %w (need %d)", p, n, errFewSamples, minTailSamples)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// median of xs (mean of the middle pair for even counts); 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns q1, q2, q3 by the same rule as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// steadiness report reads exactly like the acceptance check.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, got %d", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		// Exclusive method: 1-based position i·(n+1)/4, the bracketing
		// index clamped to 1..n−1 exactly as CPython does.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3), nil
}
