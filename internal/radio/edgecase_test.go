package radio

import (
	"errors"
	"strings"
	"testing"

	"adhocradio/internal/fault"
	"adhocradio/internal/graph"
)

// This file pins the degenerate-graph and degenerate-option edge cases on
// BOTH simulators, asserting parity: the optimized engine and the naive
// oracle must agree not only on healthy runs but on the boundary inputs —
// single-node graphs, empty step budgets, isolated sources, config
// mismatches — where off-by-ones and missing validation hide.

// TestEdgeSingleNodeParity: n = 1 means broadcast is complete before step 1.
// Both engines must report Completed with BroadcastTime 0 and simulate no
// steps.
func TestEdgeSingleNodeParity(t *testing.T) {
	g := graph.NewBuilder(1, true).MustBuild()
	for _, withFaults := range []bool{false, true} {
		opt := Options{}
		var plan *fault.Plan
		if withFaults {
			plan = &fault.Plan{Seed: 3, LinkLoss: 0.5, CrashFrac: 1, CrashWindow: 1}
			opt.Fault = plan
		}
		res, err := Run(g, flood{}, Config{}, opt)
		if err != nil {
			t.Fatalf("faults=%v: %v", withFaults, err)
		}
		ref, _, err := RunReferenceObserved(g, flood{}, Config{}, 0, plan)
		if err != nil {
			t.Fatalf("faults=%v reference: %v", withFaults, err)
		}
		for name, r := range map[string]*Result{"fast": res, "ref": ref} {
			if !r.Completed || r.BroadcastTime != 0 || r.StepsSimulated != 0 {
				t.Fatalf("faults=%v %s: %+v, want completed at time 0 with 0 steps",
					withFaults, name, r)
			}
			if len(r.InformedAt) != 1 || r.InformedAt[0] != 0 {
				t.Fatalf("faults=%v %s: InformedAt %v", withFaults, name, r.InformedAt)
			}
		}
	}
}

// TestEdgeZeroMaxStepsIsDefault: MaxSteps == 0 selects DefaultMaxSteps, not
// an empty budget — a flood on a path completes under it in both engines.
func TestEdgeZeroMaxStepsIsDefault(t *testing.T) {
	g := graph.Path(8)
	res, err := Run(g, flood{}, Config{}, Options{MaxSteps: 0})
	if err != nil || !res.Completed {
		t.Fatalf("fast: err %v, res %+v", err, res)
	}
	ref, _, err := RunReferenceObserved(g, flood{}, Config{}, 0, nil)
	if err != nil || !ref.Completed {
		t.Fatalf("ref: err %v, res %+v", err, ref)
	}
	if res.BroadcastTime != ref.BroadcastTime {
		t.Fatalf("BroadcastTime %d vs %d", res.BroadcastTime, ref.BroadcastTime)
	}
}

// TestEdgeNegativeMaxSteps: a negative budget is a validation error in both
// engines, not an instant step-limit or an infinite loop.
func TestEdgeNegativeMaxSteps(t *testing.T) {
	g := graph.Path(4)
	if _, err := Run(g, flood{}, Config{}, Options{MaxSteps: -1}); err == nil ||
		errors.Is(err, ErrStepLimit) || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("fast: err = %v, want negative-MaxSteps validation error", err)
	}
	if _, _, err := RunReferenceObserved(g, flood{}, Config{}, -1, nil); err == nil ||
		errors.Is(err, ErrStepLimit) || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("ref: err = %v, want negative-MaxSteps validation error", err)
	}
}

// TestEdgeIsolatedSource: a source with no out-neighbours can never inform
// anyone. Both engines must hit the step limit with identical partial
// results (and no panic).
func TestEdgeIsolatedSource(t *testing.T) {
	// 0 is isolated; 1-2 are connected to each other only.
	b := graph.NewBuilder(3, true)
	b.MustAddEdge(1, 2)
	g := b.MustBuild()
	res, err := Run(g, flood{}, Config{}, Options{MaxSteps: 50})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("fast: err = %v, want ErrStepLimit", err)
	}
	ref, _, refErr := RunReferenceObserved(g, flood{}, Config{}, 50, nil)
	if !errors.Is(refErr, ErrStepLimit) {
		t.Fatalf("ref: err = %v, want ErrStepLimit", refErr)
	}
	for name, r := range map[string]*Result{"fast": res, "ref": ref} {
		if r.Completed || r.InformedAt[1] != -1 || r.InformedAt[2] != -1 {
			t.Fatalf("%s: %+v, want nobody informed", name, r)
		}
	}
	if res.Transmissions != ref.Transmissions || res.StepsSimulated != ref.StepsSimulated {
		t.Fatalf("partial results diverged:\nfast %+v\nref  %+v", res, ref)
	}
}

// TestEdgeConfigMismatchParity: cfg.N contradicting the graph is rejected by
// BOTH engines. (The reference oracle used to silently accept it.)
func TestEdgeConfigMismatchParity(t *testing.T) {
	g := graph.Path(4)
	if _, err := Run(g, flood{}, Config{N: 5}, Options{}); err == nil {
		t.Fatal("fast: mismatched cfg.N accepted")
	}
	if _, _, err := RunReferenceObserved(g, flood{}, Config{N: 5}, 0, nil); err == nil {
		t.Fatal("ref: mismatched cfg.N accepted")
	}
}

// TestEdgeInvalidFaultPlanParity: an invalid fault plan is a validation
// error in both engines, and the fast engine must leave the caller's Result
// untouched (same contract as its other validation errors).
func TestEdgeInvalidFaultPlanParity(t *testing.T) {
	g := graph.Path(4)
	bad := &fault.Plan{Jammers: []int{99}, JamProb: 0.5}
	var r Runner
	res := Result{BroadcastTime: 42}
	if err := r.RunInto(&res, g, flood{}, Config{}, Options{Fault: bad}); err == nil {
		t.Fatal("fast: invalid plan accepted")
	}
	if res.BroadcastTime != 42 {
		t.Fatalf("validation error mutated caller's Result: %+v", res)
	}
	if _, _, err := RunReferenceObserved(g, flood{}, Config{}, 0, bad); err == nil {
		t.Fatal("ref: invalid plan accepted")
	}
}

// TestEdgeInactiveFaultPlanIsFree: a non-nil but inactive plan must take the
// fault-free hot path and produce results identical to a nil plan.
func TestEdgeInactiveFaultPlanIsFree(t *testing.T) {
	g := graph.Star(12)
	clean, err := Run(g, flood{}, Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inactive, err := Run(g, flood{}, Config{}, Options{Fault: &fault.Plan{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if clean.BroadcastTime != inactive.BroadcastTime ||
		clean.Transmissions != inactive.Transmissions ||
		clean.Receptions != inactive.Receptions ||
		clean.Collisions != inactive.Collisions {
		t.Fatalf("inactive plan changed the run:\nclean    %+v\ninactive %+v", clean, inactive)
	}
}

// TestEdgeFaultRunnerReuse: a faulty run through a Runner must not leak jam
// or schedule state into a following clean run on the same engine.
func TestEdgeFaultRunnerReuse(t *testing.T) {
	g := graph.Star(12)
	var r Runner
	want, err := r.Run(g, flood{}, Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Seed: 8, LinkLoss: 0.4, Jammers: []int{2}, JamProb: 0.8,
		SleepFrac: 0.5, SleepPeriod: 4, SleepAwake: 2}
	if _, err := r.Run(g, flood{}, Config{}, Options{Fault: plan, MaxSteps: 300}); err != nil &&
		!errors.Is(err, ErrStepLimit) {
		t.Fatal(err)
	}
	got, err := r.Run(g, flood{}, Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.BroadcastTime != got.BroadcastTime ||
		want.Transmissions != got.Transmissions ||
		want.Receptions != got.Receptions ||
		want.Collisions != got.Collisions {
		t.Fatalf("fault state leaked into clean run:\nbefore %+v\nafter  %+v", want, got)
	}
}
