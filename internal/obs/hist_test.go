package obs

import (
	"math"
	"testing"
)

func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1}, {3, 1},
		{4, 2}, {7, 2}, {8, 3},
		{1 << 20, 20}, {1<<21 - 1, 20},
		{1 << (HistBuckets + 3), HistBuckets - 1}, // overflow clamps to the top bucket
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistObserveSummaries(t *testing.T) {
	var h Hist
	if h.MeanNS() != 0 {
		t.Fatalf("empty MeanNS = %d", h.MeanNS())
	}
	for _, ns := range []int64{100, 300, 200} {
		h.Observe(ns)
	}
	if h.Count != 3 || h.TotalNS != 600 || h.MinNS != 100 || h.MaxNS != 300 {
		t.Fatalf("summaries wrong: %+v", h)
	}
	if h.MeanNS() != 200 {
		t.Fatalf("MeanNS = %d, want 200", h.MeanNS())
	}
	// 100 and 200, 300 land in log2 buckets 6 and 7, 8.
	if h.Buckets[6] != 1 || h.Buckets[7] != 1 || h.Buckets[8] != 1 {
		t.Fatalf("bucket placement wrong: %v", h.Buckets)
	}
}

func TestHistApproxQuantile(t *testing.T) {
	var h Hist
	if h.ApproxQuantileNS(0.5) != 0 {
		t.Fatal("empty quantile not 0")
	}
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 100) // 100ns .. 10µs
	}
	med := h.ApproxQuantileNS(0.5)
	if med < 100 || med > 20000 {
		t.Fatalf("median estimate %d outside sane range", med)
	}
	if got := h.ApproxQuantileNS(1); got != h.MaxNS {
		t.Fatalf("q=1 gave %d, want MaxNS %d", got, h.MaxNS)
	}
	if got := h.ApproxQuantileNS(-1); got <= 0 {
		t.Fatalf("clamped q<0 gave %d", got)
	}
	if got := h.ApproxQuantileNS(2); got != h.MaxNS {
		t.Fatalf("clamped q>1 gave %d, want %d", got, h.MaxNS)
	}
	// The estimate is an upper bound of the true quantile's bucket top.
	if h.ApproxQuantileNS(0.95) < med {
		t.Fatal("p95 below median")
	}
}

// TestHistQuantileEdgeCases: an empty histogram and a NaN quantile both
// return the defined value 0 — before the fix, NaN slipped past both range
// clamps (NaN comparisons are false) and int64(NaN * ...) produced a
// garbage rank.
func TestHistQuantileEdgeCases(t *testing.T) {
	var empty Hist
	for _, q := range []float64{0, 0.5, 1, -1, 2, math.NaN()} {
		if got := empty.ApproxQuantileNS(q); got != 0 {
			t.Errorf("empty.ApproxQuantileNS(%v) = %d, want 0", q, got)
		}
	}
	var h Hist
	h.Observe(100)
	h.Observe(200)
	if got := h.ApproxQuantileNS(math.NaN()); got != 0 {
		t.Errorf("ApproxQuantileNS(NaN) = %d, want 0", got)
	}
	// Out-of-range q still clamps rather than erroring.
	if got := h.ApproxQuantileNS(2); got != h.ApproxQuantileNS(1) {
		t.Errorf("q=2 (%d) != q=1 (%d)", got, h.ApproxQuantileNS(1))
	}
	if got := h.ApproxQuantileNS(-3); got != h.ApproxQuantileNS(0) {
		t.Errorf("q=-3 (%d) != q=0 (%d)", got, h.ApproxQuantileNS(0))
	}
}
