// Package radiotest provides a conformance harness for broadcasting
// protocols: every algorithm in this repository must satisfy the same model
// invariants on a standard battery of topologies. Protocol packages call
// Check from their tests.
package radiotest

import (
	"sort"
	"testing"

	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
	"adhocradio/internal/rng"
)

// Battery returns the standard topology battery keyed by name. All graphs
// are small enough for fast test runs but cover the structural extremes:
// long paths, wide stars, dense cliques, bottlenecks, regular expanders,
// and layered networks.
func Battery(seed uint64) map[string]*graph.Graph {
	src := rng.New(seed)
	b := map[string]*graph.Graph{
		"path":   graph.Path(24),
		"star":   graph.Star(24),
		"clique": graph.Clique(16),
		"grid":   graph.Grid(5, 6),
		"tree":   graph.RandomTree(48, src),
		"gnp":    graph.GNPConnected(48, 0.1, src),
		"chain":  graph.StarChain(3, 6),
	}
	if g, err := graph.UniformCompleteLayered(40, 5); err == nil {
		b["layered"] = g
	}
	if g, err := graph.Hypercube(5); err == nil {
		b["hypercube"] = g
	}
	if g, err := graph.Barbell(8, 4); err == nil {
		b["barbell"] = g
	}
	if g, err := graph.RandomLayered(48, 6, 0.3, src); err == nil {
		b["rlayered"] = g
	}
	return b
}

// Options tweak the conformance run for protocols with special needs.
type Options struct {
	// Skip names topologies to leave out (e.g. Complete-Layered only works
	// on its class).
	Skip map[string]bool
	// MaxSteps overrides the step budget (0 = simulator default).
	MaxSteps int
	// Seeds lists protocol seeds to try (default: {1, 2}).
	Seeds []uint64
}

// Check runs the protocol over the battery and asserts the model
// invariants:
//
//  1. broadcast completes within the budget;
//  2. information travels at most one hop per step:
//     InformedAt[v] >= dist(v) for every node ("speed of light");
//  3. the source is informed at step 0 and everyone else strictly later;
//  4. the same seed replays to the identical result — through a reused
//     radio.Runner, so engine-scratch reuse is proven to leak nothing
//     between runs for every protocol;
//  5. the optimized engine agrees with the naive RunReferenceObserved
//     oracle on every Result field (differential validation of the CSR
//     hot loop);
//  6. the engine's obs.Counters window for the run equals the counters
//     RunReferenceObserved tallies independently, and both restate the
//     Result's own accounting — the counter half of the mirror rule.
func Check(t *testing.T, build func() radio.Protocol, opt Options) {
	t.Helper()
	seeds := opt.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1, 2}
	}
	// One engine shared across all topologies and seeds: any scratch state
	// bleeding from one run into the next shows up as a replay divergence.
	runner := radio.NewRunner()
	battery := Battery(7)
	names := make([]string, 0, len(battery))
	//radiolint:ignore detmaprange names are sorted before use
	for name := range battery {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if opt.Skip[name] {
			continue
		}
		g := battery[name]
		t.Run(name, func(t *testing.T) {
			dist, _ := g.BFSLayers()
			for _, seed := range seeds {
				// Every conformance run also asserts the NodeProgram
				// calling contract (Act/Deliver ordering, half-duplex, no
				// act-before-informed).
				p := radio.WithContractChecks(build(), func(err error) {
					t.Errorf("seed %d: %v", seed, err)
				})
				res, err := radio.Run(g, p, radio.Config{Seed: seed},
					radio.Options{MaxSteps: opt.MaxSteps})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.Completed {
					t.Fatalf("seed %d: incomplete", seed)
				}
				if res.InformedAt[0] != 0 {
					t.Fatalf("seed %d: source informed at %d", seed, res.InformedAt[0])
				}
				for v := 1; v < g.N(); v++ {
					at := res.InformedAt[v]
					if at < 1 {
						t.Fatalf("seed %d: node %d informed at %d", seed, v, at)
					}
					if at < dist[v] {
						t.Fatalf("seed %d: node %d at distance %d informed at step %d (faster than light)",
							seed, v, dist[v], at)
					}
				}
				// Replay determinism, through the reused engine. The
				// counter snapshot around the replay is the engine side of
				// the per-run counter window.
				before := runner.Counters()
				res2, err := runner.Run(g, build(), radio.Config{Seed: seed},
					radio.Options{MaxSteps: opt.MaxSteps})
				if err != nil {
					t.Fatalf("seed %d replay: %v", seed, err)
				}
				engCounters := runner.Counters().Diff(before)
				if res.BroadcastTime != res2.BroadcastTime || res.Transmissions != res2.Transmissions {
					t.Fatalf("seed %d: replay diverged (%d/%d vs %d/%d)", seed,
						res.BroadcastTime, res.Transmissions, res2.BroadcastTime, res2.Transmissions)
				}
				// Differential validation: the optimized CSR engine must
				// reproduce the naive oracle byte for byte — Result fields
				// and engine counters alike.
				ref, refCounters, err := radio.RunReferenceObserved(g, build(), radio.Config{Seed: seed}, opt.MaxSteps, nil)
				if err != nil {
					t.Fatalf("seed %d reference: %v", seed, err)
				}
				if engCounters != refCounters {
					t.Fatalf("seed %d: counter mirror divergence:\nengine    %+v\nreference %+v",
						seed, engCounters, refCounters)
				}
				if engCounters.Steps != int64(res2.StepsSimulated) ||
					engCounters.Transmissions != res2.Transmissions ||
					engCounters.Receptions != res2.Receptions ||
					engCounters.Collisions != res2.Collisions {
					t.Fatalf("seed %d: counters diverge from Result:\ncounters %+v\nresult   %+v",
						seed, engCounters, res2)
				}
				if engCounters.FaultEvents() != 0 {
					t.Fatalf("seed %d: fault counters fired without a fault plan: %+v", seed, engCounters)
				}
				if res.BroadcastTime != ref.BroadcastTime ||
					res.Transmissions != ref.Transmissions ||
					res.Receptions != ref.Receptions ||
					res.Collisions != ref.Collisions {
					t.Fatalf("seed %d: optimized vs reference diverged:\nfast %+v\nref  %+v",
						seed, res, ref)
				}
				for v := range res.InformedAt {
					if res.InformedAt[v] != ref.InformedAt[v] {
						t.Fatalf("seed %d: InformedAt[%d] %d (optimized) vs %d (reference)",
							seed, v, res.InformedAt[v], ref.InformedAt[v])
					}
				}
			}
		})
	}
}
