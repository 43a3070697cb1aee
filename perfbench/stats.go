package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of values.
func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of values by linear
// interpolation between closest ranks, the "linear" method of most
// statistics packages: rank p·(n−1) on the sorted sample. It returns
// NaN for an empty sample.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := sorted(values)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(values []float64) float64 { return percentile(values, 0.5) }

// quartiles returns the three cut points dividing values into four
// groups, by the same "exclusive" method as Python's
// statistics.quantiles(values, n=4), so the spreads this benchmark
// reports about itself match the ones its users compute. It needs at
// least two values.
func quartiles(values []float64) (q1, q2, q3 float64, ok bool) {
	n := len(values)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sorted(values)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4 // may leave [0,4] after the clamp: Python extrapolates too
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

// tailQuantile is the highest quantile of an n-sample timing that still
// has at least ten samples beyond it; below 20 samples it falls back
// to the median.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

// pick maps each element of outs to one number.
func pick[T any](outs []T, f func(T) float64) []float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = f(o)
	}
	return v
}

func maxOf(values []float64) float64 {
	m := math.Inf(-1)
	for _, v := range values {
		m = math.Max(m, v)
	}
	return m
}

func sum(values []float64) float64 {
	t := 0.0
	for _, v := range values {
		t += v
	}
	return t
}
