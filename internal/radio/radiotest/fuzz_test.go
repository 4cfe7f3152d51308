package radiotest

import (
	"errors"
	"testing"

	"adhocradio/internal/core"
	"adhocradio/internal/decay"
	"adhocradio/internal/det"
	"adhocradio/internal/fault"
	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
	"adhocradio/internal/rng"
)

// fuzzGraphKinds is the number of topology kinds fuzzGraph derives.
const fuzzGraphKinds = 6

// fuzzGraph derives a topology from the fuzz input. Kinds 0-2 are the
// bitmap-dense graphs the bit-parallel tally kernel serves: a connected GNP
// graph with edge probability in [3/64, 1] (kind 0), or a complete layered
// network of radius 2..8 with even layers (kind 1) or with the highest
// labels in the first layer (kind 2). Kinds 3-5 are sparse, where wake
// hints skip most Act calls: a random tree (kind 3), a connected GNP graph
// with p = d/n for d in 2..8 on top of its spanning tree (kind 4), and a
// random 3- or 4-regular graph (kind 5). complete reports whether the graph is complete layered, the only
// class Complete-Layered is correct on.
func fuzzGraph(t *testing.T, seed uint64, kind uint8, n int, density uint8) (g *graph.Graph, complete bool) {
	t.Helper()
	var err error
	d := min(2+int(density)%7, n-1)
	switch kind % fuzzGraphKinds {
	case 0:
		g = graph.GNPConnected(n, float64(3+density%62)/64, rng.New(seed))
	case 1:
		g, err = graph.UniformCompleteLayered(n, d)
		complete = true
	case 2:
		g, err = graph.WorstLabelCompleteLayered(n, d)
		complete = true
	case 3:
		return graph.RandomTree(n, rng.New(seed)), false
	case 4:
		return graph.GNPConnected(n, min(1, float64(2+density%7)/float64(n)), rng.New(seed)), false
	default:
		d = 3 + int(density)%2
		if n*d%2 == 1 {
			d = 4
		}
		g, err = graph.RandomRegular(n, min(d, n-1), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return g, false
	}
	if err != nil {
		t.Fatal(err)
	}
	if !graph.BitmapDense(n, g.Edges()) {
		t.Fatalf("kind %d n=%d: not bitmap-dense (arcs=%d)", kind%fuzzGraphKinds, n, g.Edges())
	}
	return g, complete
}

// fuzzNodeFaults derives the run's fault plan: none (0), crash-only (1) or
// sleep-only (2), which run on the clean tallies, or crash plus link loss
// (3), which keeps tallyFaulty in play.
func fuzzNodeFaults(seed uint64, plan uint8) *fault.Plan {
	switch plan % 4 {
	case 1:
		return &fault.Plan{Seed: seed, CrashFrac: 0.15, CrashWindow: 64}
	case 2:
		return &fault.Plan{Seed: seed, SleepFrac: 0.3, SleepPeriod: 5, SleepAwake: 3}
	case 3:
		return &fault.Plan{Seed: seed, CrashFrac: 0.15, CrashWindow: 64, LinkLoss: 0.1}
	}
	return nil
}

// FuzzProtocolsVsReference is the differential fuzzer for the repository's
// real protocols: KP, BGI, Select-and-Send, round-robin, Interleaved,
// DFSNeighborhood and SpontaneousLinear (plus Complete-Layered on complete
// layered inputs) run one after another through a single reused Runner and
// through RunReferenceObserved, on dense graphs the bit-parallel kernel
// serves and on sparse graphs where the deterministic programs' wake hints
// skip most Act calls, with no fault plan or a node-fault plan. They must
// agree on every Result field and on every obs.Counters field. A budgeted
// run counts as agreement when both sides hit ErrStepLimit after the same
// partial result.
func FuzzProtocolsVsReference(f *testing.F) {
	// Seeds straddle the kernel's thresholds: n crosses the bitplane word
	// boundaries (63/64/65, 128/129) up to the size cap (200), and GNP mean
	// degrees of 9 to 12 at n=129 and n=200 sit around the bitsetArcFactor
	// crossover (3 per word per transmitter), so runs flip between the
	// dense scalar path and the kernel; the layered radii run from 2 (two
	// half-n layers on air at once) to 8 (thin fronts). The sparse kinds
	// and the node-fault plans get one seed each.
	f.Add(uint64(1), uint8(0), uint8(61), uint8(0), uint8(0))   // GNP n=63 p=3/64
	f.Add(uint64(2), uint8(0), uint8(62), uint8(45), uint8(0))  // GNP n=64 p=3/4
	f.Add(uint64(3), uint8(0), uint8(63), uint8(29), uint8(0))  // GNP n=65 p=1/2
	f.Add(uint64(4), uint8(0), uint8(127), uint8(3), uint8(0))  // GNP n=129 p=6/64
	f.Add(uint64(5), uint8(0), uint8(198), uint8(0), uint8(0))  // GNP n=200 p=3/64
	f.Add(uint64(6), uint8(0), uint8(198), uint8(1), uint8(0))  // GNP n=200 p=4/64
	f.Add(uint64(7), uint8(1), uint8(62), uint8(0), uint8(0))   // uniform n=64 D=2
	f.Add(uint64(8), uint8(1), uint8(126), uint8(6), uint8(0))  // uniform n=128 D=8
	f.Add(uint64(9), uint8(2), uint8(63), uint8(1), uint8(0))   // worst-label n=65 D=3
	f.Add(uint64(10), uint8(2), uint8(198), uint8(4), uint8(0)) // worst-label n=200 D=6
	f.Add(uint64(11), uint8(1), uint8(1), uint8(3), uint8(0))   // uniform n=3 D=2
	f.Add(uint64(12), uint8(3), uint8(126), uint8(0), uint8(0)) // tree n=128
	f.Add(uint64(13), uint8(4), uint8(198), uint8(5), uint8(0)) // GNP n=200 p=7/n
	f.Add(uint64(14), uint8(5), uint8(97), uint8(0), uint8(0))  // 4-regular n=99 (3·99 is odd)
	f.Add(uint64(15), uint8(0), uint8(63), uint8(29), uint8(1)) // GNP n=65 p=1/2, crash
	f.Add(uint64(16), uint8(3), uint8(127), uint8(0), uint8(2)) // tree n=129, sleep
	f.Add(uint64(17), uint8(5), uint8(98), uint8(1), uint8(3))  // 4-regular n=100, crash + loss
	f.Fuzz(func(t *testing.T, seed uint64, kind, size, density, plan uint8) {
		n := 2 + int(size)%199 // [2, 200]
		g, complete := fuzzGraph(t, seed, kind, n, density)
		faults := fuzzNodeFaults(seed, plan)
		protocols := []radio.Protocol{
			core.New(),
			decay.New(),
			det.SelectAndSend{},
			det.RoundRobin{},
			det.NewInterleaved(det.RoundRobin{}, det.SelectAndSend{}),
			det.DFSNeighborhood{},
			det.SpontaneousLinear{},
		}
		if complete {
			protocols = append(protocols, det.CompleteLayered{})
		}
		const budget = 2048
		cfg := radio.Config{Seed: seed}
		var runner radio.Runner
		for _, p := range protocols {
			before := runner.Counters()
			fast, fastErr := runner.Run(g, p, cfg, radio.Options{MaxSteps: budget, Fault: faults})
			ref, refCounters, refErr := radio.RunReferenceObserved(g, p, cfg, budget, faults)
			if (fastErr == nil) != (refErr == nil) {
				t.Fatalf("%s: error mismatch: fast=%v ref=%v", p.Name(), fastErr, refErr)
			}
			if fastErr != nil && (!errors.Is(fastErr, radio.ErrStepLimit) || !errors.Is(refErr, radio.ErrStepLimit)) {
				t.Fatalf("%s: unexpected errors: fast=%v ref=%v", p.Name(), fastErr, refErr)
			}
			if fast.BroadcastTime != ref.BroadcastTime ||
				fast.Transmissions != ref.Transmissions ||
				fast.Receptions != ref.Receptions ||
				fast.Collisions != ref.Collisions ||
				fast.StepsSimulated != ref.StepsSimulated ||
				fast.Completed != ref.Completed {
				t.Fatalf("%s (n=%d kind=%d plan=%d): divergence:\nfast %+v\nref  %+v",
					p.Name(), n, kind%fuzzGraphKinds, plan%4, fast, ref)
			}
			for v := range fast.InformedAt {
				if fast.InformedAt[v] != ref.InformedAt[v] {
					t.Fatalf("%s: InformedAt[%d] = %d (optimized) vs %d (reference)",
						p.Name(), v, fast.InformedAt[v], ref.InformedAt[v])
				}
			}
			if eng := runner.Counters().Diff(before); eng != refCounters {
				t.Fatalf("%s (n=%d kind=%d plan=%d): counter divergence:\nengine    %+v\nreference %+v",
					p.Name(), n, kind%fuzzGraphKinds, plan%4, eng, refCounters)
			}
		}
	})
}
