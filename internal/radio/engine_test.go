package radio

import (
	"errors"
	"testing"

	"adhocradio/internal/graph"
	"adhocradio/internal/rng"
)

// TestRunnerReuseMatchesFreshRun drives one engine through a mixed sequence
// of graphs, protocols, and seeds and checks every run against a fresh
// package-level Run: scratch reuse must never change a byte of the Result.
func TestRunnerReuseMatchesFreshRun(t *testing.T) {
	src := rng.New(41)
	graphs := []*graph.Graph{
		graph.Clique(20),
		graph.Path(40),
		graph.GNPConnected(64, 0.08, src),
		graph.Star(7), // shrinking graph: scratch must re-bound, not leak
		graph.RandomTree(50, src),
	}
	r := NewRunner()
	for gi, g := range graphs {
		for seed := uint64(1); seed <= 3; seed++ {
			reused, err := r.Run(g, coin{}, Config{Seed: seed}, Options{})
			if err != nil {
				t.Fatalf("graph %d seed %d reused: %v", gi, seed, err)
			}
			fresh, err := Run(g, coin{}, Config{Seed: seed}, Options{})
			if err != nil {
				t.Fatalf("graph %d seed %d fresh: %v", gi, seed, err)
			}
			if reused.BroadcastTime != fresh.BroadcastTime ||
				reused.Transmissions != fresh.Transmissions ||
				reused.Receptions != fresh.Receptions ||
				reused.Collisions != fresh.Collisions ||
				reused.StepsSimulated != fresh.StepsSimulated ||
				reused.Completed != fresh.Completed {
				t.Fatalf("graph %d seed %d: reused %+v vs fresh %+v", gi, seed, reused, fresh)
			}
			for v := range fresh.InformedAt {
				if reused.InformedAt[v] != fresh.InformedAt[v] {
					t.Fatalf("graph %d seed %d: InformedAt[%d] %d vs %d",
						gi, seed, v, reused.InformedAt[v], fresh.InformedAt[v])
				}
			}
		}
	}
}

// TestRunnerRunIntoReusesResult checks that RunInto reuses the caller's
// InformedAt storage and fully resets stale fields.
func TestRunnerRunIntoReusesResult(t *testing.T) {
	r := NewRunner()
	g := graph.Path(6)
	var res Result
	if err := r.RunInto(&res, g, flood{}, Config{}, Options{}); err != nil {
		t.Fatal(err)
	}
	if res.BroadcastTime != 5 || !res.Completed {
		t.Fatalf("first run: %+v", res)
	}
	buf := &res.InformedAt[0]
	// Second run on a smaller graph: storage reused, length re-bounded.
	if err := r.RunInto(&res, graph.Path(3), flood{}, Config{}, Options{}); err != nil {
		t.Fatal(err)
	}
	if len(res.InformedAt) != 3 || res.BroadcastTime != 2 {
		t.Fatalf("second run: %+v", res)
	}
	if &res.InformedAt[0] != buf {
		t.Fatal("RunInto reallocated InformedAt despite sufficient capacity")
	}
}

// TestRunnerValidationLeavesResultUntouched pins RunInto's error contract.
func TestRunnerValidationLeavesResultUntouched(t *testing.T) {
	r := NewRunner()
	res := Result{BroadcastTime: 99}
	if err := r.RunInto(&res, graph.NewBuilder(0, true).MustBuild(), flood{}, Config{}, Options{}); err == nil {
		t.Fatal("empty graph accepted")
	}
	if res.BroadcastTime != 99 {
		t.Fatal("validation error mutated the Result")
	}
	if err := r.RunInto(&res, graph.Path(3), flood{}, Config{N: 7}, Options{}); err == nil {
		t.Fatal("mismatched cfg.N accepted")
	}
	// The runner must still be usable after validation failures.
	if err := r.RunInto(&res, graph.Path(3), flood{}, Config{}, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestRunnerStepLimitThenReuse checks that a step-limit abort leaves the
// engine clean for the next trial (the invariant the pooled experiment
// workers rely on).
func TestRunnerStepLimitThenReuse(t *testing.T) {
	r := NewRunner()
	g, err := graph.CompleteLayered([]int{2, 1}) // flood livelocks here
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(g, flood{}, Config{}, Options{MaxSteps: 50})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
	if res.Completed {
		t.Fatal("livelock reported complete")
	}
	again, err := graph.CompleteLayered([]int{2, 1}) // a distinct, identical graph
	if err != nil {
		t.Fatal(err)
	}
	ok, err := r.Run(again, flood{}, Config{}, Options{MaxSteps: 50})
	if !errors.Is(err, ErrStepLimit) || ok.Collisions != res.Collisions {
		t.Fatalf("reuse after step limit diverged: %+v vs %+v (err %v)", ok, res, err)
	}
	clean, err := r.Run(graph.Path(4), flood{}, Config{}, Options{})
	if err != nil || clean.BroadcastTime != 3 {
		t.Fatalf("clean run after aborts: %+v, %v", clean, err)
	}
}

// panicAt panics inside Act at a chosen step, to poison the engine mid-step.
type panicAt struct{ step int }

func (p panicAt) Name() string { return "panicAt" }
func (p panicAt) NewNode(label int, cfg Config) NodeProgram {
	return &panicAtNode{step: p.step}
}

type panicAtNode struct{ step int }

func (n *panicAtNode) Act(t int) (bool, any) {
	if t == n.step {
		panic("protocol bug") //radiolint:ignore nopanic test fixture: simulates a buggy protocol to exercise engine poisoning recovery
	}
	return true, nil
}
func (n *panicAtNode) Deliver(t int, msg Message) {}

// TestRunnerRecoversFromPanickedRun checks the poisoned-scratch path: a run
// that unwinds mid-step must not corrupt the next run on the same engine.
func TestRunnerRecoversFromPanickedRun(t *testing.T) {
	r := NewRunner()
	g := graph.Path(6)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic from protocol")
			}
		}()
		_, _ = r.Run(g, panicAt{step: 3}, Config{}, Options{})
	}()
	res, err := r.Run(g, flood{}, Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BroadcastTime != 5 || !res.Completed {
		t.Fatalf("post-panic run diverged: %+v", res)
	}
}

// TestRunnerSteadyStateAllocs pins the tentpole's allocation claim: repeated
// trials on a reused Runner + Result allocate nothing in steady state (the
// protocol here builds zero-size programs and nil payloads, so every
// remaining allocation would be the engine's own).
func TestRunnerSteadyStateAllocs(t *testing.T) {
	r := NewRunner()
	g := graph.Clique(64)
	var res Result
	run := func() {
		if err := r.RunInto(&res, g, nilFlood{}, Config{}, Options{MaxSteps: 20, RunToMaxSteps: true}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch
	if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
		t.Fatalf("steady-state allocations = %v, want 0", allocs)
	}
}

// nilFlood floods with nil payloads through a zero-size program, making the
// protocol side of a trial allocation-free.
type nilFlood struct{}

func (nilFlood) Name() string                              { return "nil-flood" }
func (nilFlood) NewNode(label int, cfg Config) NodeProgram { return nilFloodNode{} }

type nilFloodNode struct{}

func (nilFloodNode) Act(t int) (bool, any)      { return true, nil }
func (nilFloodNode) Deliver(t int, msg Message) {}

// TestRunnerDensePathThresholdCrossing runs a workload that flips between
// the sparse and dense tally paths within one run: flooding a barbell, the
// source's first step touches only deg(0) < n arcs (sparse), while later
// steps have a whole informed clique on air (arcs >= n, dense) as the front
// crawls over the bridge — and the run still completes. Results must match
// the oracle exactly.
func TestRunnerDensePathThresholdCrossing(t *testing.T) {
	g, err := graph.Barbell(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(g, flood{}, Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunReference(g, flood{}, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fast.BroadcastTime != ref.BroadcastTime ||
		fast.Transmissions != ref.Transmissions ||
		fast.Receptions != ref.Receptions ||
		fast.Collisions != ref.Collisions {
		t.Fatalf("threshold crossing diverged:\nfast %+v\nref  %+v", fast, ref)
	}
	for v := range fast.InformedAt {
		if fast.InformedAt[v] != ref.InformedAt[v] {
			t.Fatalf("InformedAt[%d]: %d vs %d", v, fast.InformedAt[v], ref.InformedAt[v])
		}
	}
}
