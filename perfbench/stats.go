package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest of the standard percentiles that still has at
// least ten samples beyond it, with that percentile. With fewer than
// twenty samples no percentile qualifies and the maximum is returned as
// percentile 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		// rank samples lie at or below the percentile.
		rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
		if len(s)-rank >= 10 {
			return s[rank-1], p
		}
	}
	return s[len(s)-1], 100
}
