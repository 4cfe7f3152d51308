package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		want   float64
		p, val float64
		ok     bool
	}{
		// 1000 samples: the 990th value has exactly 10 beyond it, so p99
		// is quotable as asked.
		{"p99 of 1000", 1000, 99, 99, 990, true},
		// 544 samples: p99 would have 5 beyond it; the rule falls back to
		// the highest percentile with 10 beyond, rank 534.
		{"p99 of 544 falls back", 544, 99, 100 * 534.0 / 544, 534, true},
		// A lower percentile than the cap is returned as asked.
		{"p50 of 100", 100, 50, 50, 50, true},
		{"11 samples", 11, 99, 100 * 1.0 / 11, 1, true},
		{"10 samples are too few", 10, 99, 0, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, ok := tailPercentile(seq(tc.n), tc.want)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if p.N != tc.n {
				t.Errorf("sample count %d, want %d", p.N, tc.n)
			}
			if !ok {
				return
			}
			if math.Abs(p.P-tc.p) > 1e-9 || p.Value != tc.val {
				t.Errorf("got p%v = %v, want p%v = %v", p.P, p.Value, tc.p, tc.val)
			}
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > p.Value {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("only %d samples beyond the reported percentile", beyond)
			}
		})
	}
}

func TestTailPercentileCountsFailuresAsMisses(t *testing.T) {
	xs := seq(100)
	for i := 0; i < 5; i++ {
		xs[i] = math.Inf(1)
	}
	p, ok := tailPercentile(xs, 90)
	if !ok || p.Value != 90 {
		t.Fatalf("p90 with 5 failures = %v (ok %v), want 90", p.Value, ok)
	}
	if got := p50(xs); got.Value != 50 || got.N != 100 {
		t.Fatalf("p50 = %+v, want 50 of 100", got)
	}
}

// The quartiles must equal Python's statistics.quantiles(xs, n=4), the
// method the spread of a benchmark metric is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25}, // Python extrapolates at the ends
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 5, 5}, 5, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
