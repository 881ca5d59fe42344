package main

import (
	"math"
	"sort"
)

// summary describes a sample: its size, median and 90th percentile.
type summary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
}

// summarize computes quantiles with the "exclusive" interpolation of
// Python's statistics.quantiles. An empty sample summarizes to zeros
// with N = 0.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		N:   len(s),
		P50: quantile(s, 0.50),
		P90: quantile(s, 0.90),
	}
}

// quantile interpolates the p-quantile of the sorted sample s at
// position p*(n+1), clamped to the sample's range.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	switch {
	case j < 1:
		return s[0]
	case j >= n:
		return s[n-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

// share divides, reporting 0 for an empty base.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
