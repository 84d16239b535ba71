package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of the samples by the nearest-rank
// rule over the exact sorted values: the smallest sample with at least
// q of all samples at or below it. It sorts xs in place and returns 0
// for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	// The epsilon keeps q*n from rounding up past a whole rank, as
	// 0.07*100 does in floating point.
	rank := int(math.Ceil(q*float64(len(xs)) - 1e-9))
	return xs[min(max(rank, 1), len(xs))-1]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
