package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileInterpolatesBetweenRanks(t *testing.T) {
	v := []float64{10, 1, 4, 3, 2} // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 10},
		{0.9, 7.6}, // rank 3.6: 4 + 0.6·(10−4)
		{0.99, 9.76},
	}
	for _, c := range cases {
		if got := percentile(v, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of an empty sample must be NaN")
	}
	if v[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) gives, including its extrapolation on
// very small samples.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3.0, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.2, 1.5, 9.9, 4.4, 4.4, 0.7, 12.0, 5.5, 6.1, 2.2, 8.8}, [3]float64{2.2, 4.4, 8.8}},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.data)
		if !ok || !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.data, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value must report !ok")
	}
}

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{{5, 0.5}, {19, 0.5}, {20, 0.5}, {40, 0.75}, {100, 0.9}, {1000, 0.99}}
	for _, c := range cases {
		if got := tailQuantile(c.n); !near(got, c.want) {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
