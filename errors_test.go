package adhocradio

import (
	"context"
	"errors"
	"io"
	"testing"

	"adhocradio/internal/radio"
)

// TestBroadcastContextCancellation: a pre-cancelled context aborts before
// the first step, and the error is discriminable with errors.Is.
func TestBroadcastContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := BroadcastContext(ctx, Path(64), NewRoundRobin(), Config{}, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled run returned a Result: %+v", res)
	}
}

// TestBroadcastContextBackground matches Broadcast bit-for-bit.
func TestBroadcastContextBackground(t *testing.T) {
	g := Path(32)
	a, err := BroadcastContext(context.Background(), g, NewSelectAndSend(), Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Broadcast(g, NewSelectAndSend(), Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.BroadcastTime != b.BroadcastTime || a.Transmissions != b.Transmissions {
		t.Fatalf("BroadcastContext diverged from Broadcast: %+v vs %+v", a, b)
	}
}

// TestErrBudgetExhausted: step-budget exhaustion is a typed error carrying
// a usable partial result.
func TestErrBudgetExhausted(t *testing.T) {
	res, err := Broadcast(Path(64), NewRoundRobin(), Config{}, Options{MaxSteps: 3})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if res == nil || res.StepsSimulated != 3 {
		t.Fatalf("partial result missing or wrong: %+v", res)
	}
}

// TestErrUnfitProtocol: the optimal randomized algorithm needs a label
// bound of at least 1, so on a one-node network every entry point returns
// ErrUnfitProtocol instead of panicking while building the source's
// program, also through the wrappers that forward the check.
func TestErrUnfitProtocol(t *testing.T) {
	g := Path(1)
	for _, p := range []Protocol{
		NewOptimalRandomized(),
		WithContractChecks(NewOptimalRandomized(), func(err error) { t.Error(err) }),
		NewInterleaved(NewRoundRobin(), NewOptimalRandomized()),
	} {
		res, err := Broadcast(g, p, Config{}, Options{})
		if !errors.Is(err, ErrUnfitProtocol) {
			t.Fatalf("%s: err = %v, want ErrUnfitProtocol", p.Name(), err)
		}
		if res != nil {
			t.Fatalf("%s: rejected run returned a Result: %+v", p.Name(), res)
		}
		if _, _, err := radio.RunReferenceObserved(g, p, Config{}, 0, nil); !errors.Is(err, ErrUnfitProtocol) {
			t.Fatalf("%s: reference err = %v, want ErrUnfitProtocol", p.Name(), err)
		}
	}
	// Protocols without a parameter check still run on one node.
	if res, err := Broadcast(g, NewDecay(), Config{}, Options{}); err != nil || !res.Completed {
		t.Fatalf("decay on one node: %+v, %v", res, err)
	}
}

// TestTopologySpecFacade: the root alias builds graphs and reports typed
// validation errors.
func TestTopologySpecFacade(t *testing.T) {
	g, err := TopologySpec{Kind: "grid", Rows: 3, Cols: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Fatalf("grid spec built %d nodes, want 12", g.N())
	}
	if _, err := (TopologySpec{Kind: "warp", N: 4}).Build(); !errors.Is(err, ErrInvalidTopologySpec) {
		t.Fatalf("err = %v, want ErrInvalidTopologySpec", err)
	}
	if len(TopologyKinds()) == 0 {
		t.Fatal("TopologyKinds returned nothing")
	}
}

// TestErrUnknownExperiment: the facade surfaces the experiment sentinel.
func TestErrUnknownExperiment(t *testing.T) {
	if _, err := RunExperiment("E99", ExperimentConfig{}, io.Discard); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("err = %v, want ErrUnknownExperiment", err)
	}
}
