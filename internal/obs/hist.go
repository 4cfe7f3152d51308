package obs

import "math/bits"

// HistBuckets is the number of log2 duration buckets: bucket i holds
// observations with 2^i <= ns < 2^(i+1) (bucket 0 also absorbs 0 and
// negative inputs, the last bucket absorbs everything longer). 2^41 ns is
// about 37 minutes — far beyond any single trial this repository runs.
const HistBuckets = 42

// Hist is a log2-bucketed duration histogram with summary accumulators.
// The zero value is empty and ready to use. All fields are plain integers
// and Observe only adds to them or takes extremes, so the histogram of a
// batch is identical for every worker count and completion order — the
// same schedule-independence contract the experiment pool gives counters.
type Hist struct {
	// Count is the number of observations.
	Count int64
	// TotalNS is the sum of all observed durations.
	TotalNS int64
	// MinNS and MaxNS are the extreme observations (Min is meaningless
	// while Count == 0).
	MinNS int64
	MaxNS int64
	// Buckets[i] counts observations with 2^i <= ns < 2^(i+1).
	Buckets [HistBuckets]int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// Observe records one duration in nanoseconds.
func (h *Hist) Observe(ns int64) {
	if h.Count == 0 || ns < h.MinNS {
		h.MinNS = ns
	}
	if ns > h.MaxNS {
		h.MaxNS = ns
	}
	h.Count++
	h.TotalNS += ns
	h.Buckets[bucketOf(ns)]++
}

// MeanNS returns the mean observed duration (0 when empty).
func (h Hist) MeanNS() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.TotalNS / h.Count
}

// ApproxQuantileNS returns an upper bound for the q-quantile (q in [0, 1])
// from the bucket boundaries: the exclusive top of the bucket holding the
// q-th observation, clamped to MaxNS. Good enough for "p95 trial time"
// reporting without retaining samples. Out-of-range q clamps; an empty
// histogram or a NaN q returns 0 (NaN compares false against both clamp
// bounds, so without its own check it would reach the rank computation and
// produce a garbage bucket index).
func (h Hist) ApproxQuantileNS(q float64) int64 {
	if h.Count == 0 || q != q {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.Count-1))
	seen := int64(0)
	for i, n := range h.Buckets {
		seen += n
		if seen > rank {
			top := int64(1) << uint(i+1)
			if top > h.MaxNS {
				top = h.MaxNS
			}
			return top
		}
	}
	return h.MaxNS
}
