package exact

import (
	"math"
	"testing"

	"adhocradio/internal/decay"
	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
)

func TestDecayScheduleShape(t *testing.T) {
	s := DecaySchedule(2) // labels {0,1,2}: k = ⌈log2 3⌉+1 = 3
	if s.StageLen != 3 {
		t.Fatalf("StageLen = %d", s.StageLen)
	}
	want := []float64{1, 0.5, 0.25, 1, 0.5, 0.25}
	for i, w := range want {
		if got := s.ProbAt(i + 1); got != w {
			t.Fatalf("ProbAt(%d) = %f, want %f", i+1, got, w)
		}
	}
}

func TestExactStarIsOneStep(t *testing.T) {
	// Star: the source's first (probability-1) transmission informs every
	// leaf; E[T] = 1 with probability 1.
	g := graph.Star(4)
	res, err := ExpectedBroadcastTime(g, DecaySchedule(3), 100, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ExpectedTime-1) > 1e-9 || res.ResidualMass > 1e-12 {
		t.Fatalf("star E[T] = %f (residual %g)", res.ExpectedTime, res.ResidualMass)
	}
	if res.CompletionByStep[0] != 1 {
		t.Fatalf("P(T<=1) = %f", res.CompletionByStep[0])
	}
}

func TestExactPath3IsDeterministicFour(t *testing.T) {
	// Path 0-1-2 under Decay with k=3: node 1 informed at step 1, promoted
	// after step 3, transmits at step 4 (p=1) informing node 2. T = 4
	// deterministically.
	g := graph.Path(3)
	res, err := ExpectedBroadcastTime(g, DecaySchedule(2), 100, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ExpectedTime-4) > 1e-9 {
		t.Fatalf("path3 E[T] = %f, want 4", res.ExpectedTime)
	}
	if res.CompletionByStep[2] != 0 || res.CompletionByStep[3] != 1 {
		t.Fatalf("CDF = %v", res.CompletionByStep[:4])
	}
}

func TestExactSingleNode(t *testing.T) {
	res, err := ExpectedBroadcastTime(graph.NewBuilder(1, true).MustBuild(), DecaySchedule(1), 10, 1e-9)
	if err != nil || res.ExpectedTime != 0 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestExactRejectsBigGraphs(t *testing.T) {
	if _, err := ExpectedBroadcastTime(graph.Path(21), DecaySchedule(20), 10, 1e-9); err == nil {
		t.Fatal("n=21 accepted")
	}
}

func TestExactRejectsBadSchedule(t *testing.T) {
	if _, err := ExpectedBroadcastTime(graph.Path(3), Schedule{}, 10, 1e-9); err == nil {
		t.Fatal("nil schedule accepted")
	}
}

// TestSimulatorMatchesExactOracle is the differential heart of this
// package: the empirical distribution of simulated BGI Decay broadcast
// times must match the exact one on several small topologies.
func TestSimulatorMatchesExactOracle(t *testing.T) {
	topos := map[string]*graph.Graph{
		"path5":    graph.Path(5),
		"clique5":  graph.Clique(5),
		"star6":    graph.Star(6),
		"cycle6":   mustCycle(t, 6),
		"lollipop": lollipop(t),
	}
	const seeds = 3000
	for name, g := range topos {
		exactRes, err := ExpectedBroadcastTime(g, DecaySchedule(g.N()-1), 2000, 1e-9)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total := 0.0
		counts := map[int]int{}
		for seed := 1; seed <= seeds; seed++ {
			res, err := radio.Run(g, decay.New(), radio.Config{Seed: uint64(seed)}, radio.Options{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			total += float64(res.BroadcastTime)
			counts[res.BroadcastTime]++
		}
		mean := total / seeds
		// Standard error of the mean is ~ std/sqrt(seeds); allow 5 sigma
		// with a generous std estimate of E[T].
		tolMean := 5 * exactRes.ExpectedTime / math.Sqrt(seeds)
		if tolMean < 0.2 {
			tolMean = 0.2
		}
		if math.Abs(mean-exactRes.ExpectedTime) > tolMean {
			t.Errorf("%s: simulated mean %.3f vs exact %.3f (tol %.3f)",
				name, mean, exactRes.ExpectedTime, tolMean)
		}
		// Check the CDF at a mid quantile too.
		mid := int(exactRes.ExpectedTime)
		if mid >= 1 && mid <= len(exactRes.CompletionByStep) {
			exactCDF := exactRes.CompletionByStep[mid-1]
			empirical := 0
			for bt, c := range counts {
				if bt <= mid {
					empirical += c
				}
			}
			empCDF := float64(empirical) / seeds
			if math.Abs(empCDF-exactCDF) > 0.05 {
				t.Errorf("%s: P(T<=%d): empirical %.3f vs exact %.3f",
					name, mid, empCDF, exactCDF)
			}
		}
	}
}

func mustCycle(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.Cycle(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// lollipop returns a triangle with a 2-edge tail: mixes contention and a
// pendant path.
func lollipop(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5, true)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(0, 2)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(2, 3)
	b.MustAddEdge(3, 4)
	return b.MustBuild()
}

func TestTransmitPatternsSumToOne(t *testing.T) {
	for _, p := range []float64{0, 0.25, 0.5, 1} {
		total := 0.0
		calls := 0
		transmitPatterns(0b1011, p, func(tx uint32, prob float64) {
			total += prob
			calls++
			if tx&^uint32(0b1011) != 0 {
				t.Fatalf("pattern %b outside active mask", tx)
			}
		})
		if math.Abs(total-1) > 1e-12 {
			t.Fatalf("p=%f: probabilities sum to %f", p, total)
		}
		if p > 0 && p < 1 && calls != 8 {
			t.Fatalf("p=%f: %d patterns, want 8", p, calls)
		}
	}
}
