package main

import (
	"math"
	"sort"
)

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for none); xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailSupported reports whether the p-th percentile of n samples has at
// least ten samples beyond it, the least a tail percentile is reported on.
func tailSupported(n int, p float64) bool { return float64(n)*(100-p)/100 >= 10 }
