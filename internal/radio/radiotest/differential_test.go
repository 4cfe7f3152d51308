package radiotest

import (
	"testing"

	"adhocradio/internal/det"
	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
	"adhocradio/internal/rng"
)

// TestOptimizedMatchesReferenceOnDetProtocols cross-checks the optimized
// simulator against the naive oracle for the command-driven deterministic
// protocols, whose echo replies exercise the SourceCarrier (label-only)
// delivery rules in both implementations.
func TestOptimizedMatchesReferenceOnDetProtocols(t *testing.T) {
	src := rng.New(99)
	protocols := []radio.Protocol{
		det.SelectAndSend{},
		det.RoundRobin{},
		det.NewInterleaved(det.RoundRobin{}, det.SelectAndSend{}),
		det.DFSNeighborhood{},
		det.SpontaneousLinear{},
		det.ObliviousDecay{Seed: 4},
	}
	graphs := []*graph.Graph{
		graph.Path(15),
		graph.Clique(10),
		graph.GNPConnected(30, 0.12, src),
		graph.RandomTree(30, src),
		graph.StarChain(2, 5),
	}
	for _, p := range protocols {
		for gi, g := range graphs {
			fast, err := radio.Run(g, p, radio.Config{Seed: 1}, radio.Options{})
			if err != nil {
				t.Fatalf("%s graph %d fast: %v", p.Name(), gi, err)
			}
			ref, _, err := radio.RunReferenceObserved(g, p, radio.Config{Seed: 1}, 0, nil)
			if err != nil {
				t.Fatalf("%s graph %d reference: %v", p.Name(), gi, err)
			}
			if fast.BroadcastTime != ref.BroadcastTime ||
				fast.Transmissions != ref.Transmissions ||
				fast.Receptions != ref.Receptions ||
				fast.Collisions != ref.Collisions {
				t.Fatalf("%s graph %d diverged:\nfast %+v\nref  %+v", p.Name(), gi, fast, ref)
			}
			for v := range fast.InformedAt {
				if fast.InformedAt[v] != ref.InformedAt[v] {
					t.Fatalf("%s graph %d: InformedAt[%d] %d vs %d",
						p.Name(), gi, v, fast.InformedAt[v], ref.InformedAt[v])
				}
			}
		}
	}
}

// TestCompleteLayeredDifferential runs the differential check on the
// protocol's own network class.
func TestCompleteLayeredDifferential(t *testing.T) {
	for _, sizes := range [][]int{{3, 2, 4}, {1, 1, 1, 1}, {5, 5}} {
		g, err := graph.CompleteLayered(sizes)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := radio.Run(g, det.CompleteLayered{}, radio.Config{}, radio.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := radio.RunReferenceObserved(g, det.CompleteLayered{}, radio.Config{}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fast.BroadcastTime != ref.BroadcastTime || fast.Transmissions != ref.Transmissions {
			t.Fatalf("sizes %v diverged: fast %+v ref %+v", sizes, fast, ref)
		}
	}
}
