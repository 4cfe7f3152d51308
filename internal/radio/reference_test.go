package radio

import (
	"testing"

	"adhocradio/internal/graph"
	"adhocradio/internal/rng"
)

// TestDifferentialAgainstReference cross-checks the optimized simulator
// against the naive oracle on randomized topologies and a randomized
// protocol: every metric must coincide exactly.
func TestDifferentialAgainstReference(t *testing.T) {
	src := rng.New(555)
	for trial := 0; trial < 25; trial++ {
		var g *graph.Graph
		switch trial % 4 {
		case 0:
			g = graph.GNPConnected(20+src.Intn(40), 0.1, src)
		case 1:
			g = graph.RandomTree(20+src.Intn(40), src)
		case 2:
			var err error
			g, err = graph.RandomLayered(30+src.Intn(30), 3+src.Intn(5), 0.3, src)
			if err != nil {
				t.Fatal(err)
			}
		case 3:
			var err error
			g, err = graph.DirectedLayered(30+src.Intn(30), 3+src.Intn(5), 0.3, src)
			if err != nil {
				t.Fatal(err)
			}
		}
		seed := uint64(trial) + 17
		fast, err := Run(g, coin{}, Config{Seed: seed}, Options{})
		if err != nil {
			t.Fatalf("trial %d: fast: %v", trial, err)
		}
		ref, _, err := RunReferenceObserved(g, coin{}, Config{Seed: seed}, 0, nil)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		if fast.BroadcastTime != ref.BroadcastTime ||
			fast.Transmissions != ref.Transmissions ||
			fast.Receptions != ref.Receptions ||
			fast.Collisions != ref.Collisions {
			t.Fatalf("trial %d: divergence:\nfast %+v\nref  %+v", trial, fast, ref)
		}
		for v := range fast.InformedAt {
			if fast.InformedAt[v] != ref.InformedAt[v] {
				t.Fatalf("trial %d: InformedAt[%d]: %d vs %d",
					trial, v, fast.InformedAt[v], ref.InformedAt[v])
			}
		}
	}
}

// TestReferenceMatchesOnDeterministicProtocol repeats the differential
// check with a command-driven protocol whose payloads include label-only
// echo replies (exercising the SourceCarrier path in both simulators).
func TestReferenceStepLimit(t *testing.T) {
	g, err := graph.CompleteLayered([]int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunReferenceObserved(g, flood{}, Config{}, 50, nil); err == nil {
		t.Fatal("reference missed the livelock")
	}
}

func TestReferenceEmptyGraph(t *testing.T) {
	if _, _, err := RunReferenceObserved(graph.NewBuilder(0, true).MustBuild(), flood{}, Config{}, 0, nil); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestReferenceSingleNode(t *testing.T) {
	res, _, err := RunReferenceObserved(graph.NewBuilder(1, true).MustBuild(), flood{}, Config{}, 0, nil)
	if err != nil || !res.Completed || res.BroadcastTime != 0 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}
