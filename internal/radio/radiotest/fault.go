package radiotest

import (
	"errors"
	"sort"
	"testing"

	"adhocradio/internal/fault"
	"adhocradio/internal/radio"
)

// FaultPlans returns the standard fault-plan battery keyed by name: one plan
// per fault model plus a composite "storm" that enables them all. Jammer
// hosts are fixed small labels, valid on every battery topology.
func FaultPlans(seed uint64) map[string]*fault.Plan {
	return map[string]*fault.Plan{
		"loss":  {Seed: seed, LinkLoss: 0.15},
		"churn": {Seed: seed + 1, ChurnProb: 0.3, ChurnWindow: 8},
		"jam":   {Seed: seed + 2, Jammers: []int{0, 3}, JamProb: 0.35},
		"crash": {Seed: seed + 3, CrashFrac: 0.25, CrashWindow: 40},
		"sleep": {Seed: seed + 4, SleepFrac: 0.4, SleepPeriod: 6, SleepAwake: 3},
		"storm": {
			Seed: seed + 5, LinkLoss: 0.1,
			ChurnProb: 0.2, ChurnWindow: 5,
			Jammers: []int{1}, JamProb: 0.3,
			SleepFrac: 0.2, SleepPeriod: 4, SleepAwake: 2,
		},
	}
}

// CheckFaults runs the protocol over the topology battery crossed with the
// fault-plan battery and asserts, for every combination:
//
//  1. the optimized engine and the naive RunReferenceObserved oracle agree
//     on every Result field AND on every obs.Counters field (steps,
//     traffic, silent steps, links dropped, jam noise, crash/sleep skips),
//     including on runs that hit the step limit — the differential gate for
//     the faulty code paths and their accounting;
//  2. replaying through the same reused Runner reproduces the result, so
//     fault scratch (jam shadows, compiled schedules) leaks nothing between
//     runs;
//  3. the model invariants that survive faults still hold: the source is
//     informed at step 0, and information travels at most one hop per step
//     (faults only remove receptions, they cannot accelerate anything).
//
// Faulty runs may legitimately never complete (a crashed cut node strands a
// component), so the budget is capped and a step-limit error on BOTH
// simulators counts as agreement.
func CheckFaults(t *testing.T, build func() radio.Protocol, opt Options) {
	t.Helper()
	maxSteps := opt.MaxSteps
	if maxSteps == 0 {
		maxSteps = 2500
	}
	seeds := opt.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	runner := radio.NewRunner()
	battery := Battery(7)
	names := make([]string, 0, len(battery))
	//radiolint:ignore detmaprange names are sorted before use
	for name := range battery {
		names = append(names, name)
	}
	sort.Strings(names)
	plans := FaultPlans(13)
	planNames := make([]string, 0, len(plans))
	//radiolint:ignore detmaprange names are sorted before use
	for name := range plans {
		planNames = append(planNames, name)
	}
	sort.Strings(planNames)
	for _, name := range names {
		if opt.Skip[name] {
			continue
		}
		g := battery[name]
		t.Run(name, func(t *testing.T) {
			dist, _ := g.BFSLayers()
			for _, planName := range planNames {
				plan := plans[planName]
				for _, seed := range seeds {
					cfg := radio.Config{Seed: seed}
					before := runner.Counters()
					fast, fastErr := runner.Run(g, build(), cfg,
						radio.Options{MaxSteps: maxSteps, Fault: plan})
					if fastErr != nil && !errors.Is(fastErr, radio.ErrStepLimit) {
						t.Fatalf("%s seed %d: %v", planName, seed, fastErr)
					}
					engCounters := runner.Counters().Diff(before)
					ref, refCounters, refErr := radio.RunReferenceObserved(g, build(), cfg, maxSteps, plan)
					if refErr != nil && !errors.Is(refErr, radio.ErrStepLimit) {
						t.Fatalf("%s seed %d reference: %v", planName, seed, refErr)
					}
					if engCounters != refCounters {
						t.Fatalf("%s seed %d: counter mirror divergence:\nengine    %+v\nreference %+v",
							planName, seed, engCounters, refCounters)
					}
					if (fastErr == nil) != (refErr == nil) {
						t.Fatalf("%s seed %d: step-limit disagreement: fast err %v, ref err %v",
							planName, seed, fastErr, refErr)
					}
					if fast.Completed != ref.Completed ||
						fast.BroadcastTime != ref.BroadcastTime ||
						fast.StepsSimulated != ref.StepsSimulated ||
						fast.Transmissions != ref.Transmissions ||
						fast.Receptions != ref.Receptions ||
						fast.Collisions != ref.Collisions {
						t.Fatalf("%s seed %d: optimized vs reference diverged:\nfast %+v\nref  %+v",
							planName, seed, fast, ref)
					}
					for v := range fast.InformedAt {
						if fast.InformedAt[v] != ref.InformedAt[v] {
							t.Fatalf("%s seed %d: InformedAt[%d] %d (optimized) vs %d (reference)",
								planName, seed, v, fast.InformedAt[v], ref.InformedAt[v])
						}
					}
					// Invariants that survive faults.
					if fast.InformedAt[0] != 0 {
						t.Fatalf("%s seed %d: source informed at %d", planName, seed, fast.InformedAt[0])
					}
					for v := 1; v < g.N(); v++ {
						if at := fast.InformedAt[v]; at >= 0 && at < dist[v] {
							t.Fatalf("%s seed %d: node %d at distance %d informed at step %d (faster than light)",
								planName, seed, v, dist[v], at)
						}
					}
					// Replay determinism through the reused engine.
					again, againErr := runner.Run(g, build(), cfg,
						radio.Options{MaxSteps: maxSteps, Fault: plan})
					if againErr != nil && !errors.Is(againErr, radio.ErrStepLimit) {
						t.Fatalf("%s seed %d replay: %v", planName, seed, againErr)
					}
					if (fastErr == nil) != (againErr == nil) ||
						again.BroadcastTime != fast.BroadcastTime ||
						again.Transmissions != fast.Transmissions ||
						again.Receptions != fast.Receptions ||
						again.Collisions != fast.Collisions {
						t.Fatalf("%s seed %d: replay diverged (%+v vs %+v)", planName, seed, fast, again)
					}
				}
			}
		})
	}
}
