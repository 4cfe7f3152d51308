package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the two middle values for an
// even count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs; NaN when xs is empty.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so a
// spread computed here matches one computed from the same values in Python.
// With fewer than two values both quartiles are that value (NaN if none).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := len(s) + 1
	at := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// percentile is one reported latency percentile: the value at percentile P
// of N samples.
type percentile struct {
	P     float64
	Value float64
	N     int
}

// minBeyond is how many samples must lie beyond a reported percentile for
// it to be quotable.
const minBeyond = 10

// tailPercentile applies the reporting rule for tails: it returns the
// percentile want (e.g. 99) when at least minBeyond samples lie beyond it,
// and otherwise the highest percentile that has minBeyond samples beyond it.
// Percentiles use the nearest-rank definition: the value at 1-based rank
// ceil(P/100 * N). ok is false when there are too few samples to quote any
// tail (N <= minBeyond). Samples may include +Inf for operations that
// failed: a failure counts as missing any latency limit.
func tailPercentile(samples []float64, want float64) (p percentile, ok bool) {
	n := len(samples)
	if n <= minBeyond {
		return percentile{N: n}, false
	}
	s := sorted(samples)
	rank := int(math.Ceil(want / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if maxRank := n - minBeyond; rank > maxRank {
		rank = maxRank
	}
	return percentile{P: 100 * float64(rank) / float64(n), Value: s[rank-1], N: n}, true
}

// p50 is the nearest-rank median of samples, which (unlike median) is
// always one of the samples, so a failure's +Inf never averages in.
func p50(samples []float64) percentile {
	n := len(samples)
	if n == 0 {
		return percentile{P: 50, Value: math.NaN()}
	}
	s := sorted(samples)
	rank := (n + 1) / 2
	return percentile{P: 50, Value: s[rank-1], N: n}
}
