package radio

import (
	"errors"
	"testing"

	"adhocradio/internal/fault"
	"adhocradio/internal/graph"
	"adhocradio/internal/obs"
	"adhocradio/internal/rng"
)

// TestCountersMatchResultFaultFree: on a fault-free run the engine counters
// must restate the Result's own accounting exactly, fault counters stay
// zero, and silent steps plus transmitting steps partition the run.
func TestCountersMatchResultFaultFree(t *testing.T) {
	g := graph.GNPConnected(40, 0.15, rng.New(3))
	r := NewRunner()
	res, err := r.Run(g, coin{}, Config{Seed: 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := r.Counters()
	if c.Steps != int64(res.StepsSimulated) ||
		c.Transmissions != res.Transmissions ||
		c.Receptions != res.Receptions ||
		c.Collisions != res.Collisions {
		t.Fatalf("counters diverge from Result:\ncounters %+v\nresult   %+v", c, res)
	}
	if c.FaultEvents() != 0 {
		t.Fatalf("fault counters fired on a fault-free run: %+v", c)
	}
	if c.SilentSteps < 0 || c.SilentSteps > c.Steps {
		t.Fatalf("silent steps %d outside [0, %d]", c.SilentSteps, c.Steps)
	}
}

// TestCountersAccumulateAndReset: counters are Runner-cumulative (the
// per-run window is a Diff of snapshots) and ResetCounters zeroes them.
func TestCountersAccumulateAndReset(t *testing.T) {
	g := graph.Path(12)
	r := NewRunner()
	if _, err := r.Run(g, flood{}, Config{}, Options{}); err != nil {
		t.Fatal(err)
	}
	first := r.Counters()
	if first.IsZero() {
		t.Fatal("no counters recorded")
	}
	if _, err := r.Run(g, flood{}, Config{}, Options{}); err != nil {
		t.Fatal(err)
	}
	second := r.Counters()
	if got := second.Diff(first); got != first {
		t.Fatalf("replay window %+v differs from first run %+v", got, first)
	}
	r.ResetCounters()
	if !r.Counters().IsZero() {
		t.Fatalf("ResetCounters left %+v", r.Counters())
	}
}

// TestCountersSingleNode: an n=1 run simulates zero steps and counts
// nothing.
func TestCountersSingleNode(t *testing.T) {
	g := graph.Path(1)
	r := NewRunner()
	res, err := r.Run(g, flood{}, Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.BroadcastTime != 0 {
		t.Fatalf("n=1 result wrong: %+v", res)
	}
	if !r.Counters().IsZero() {
		t.Fatalf("n=1 counted events: %+v", r.Counters())
	}
}

// TestCountersEngineVsReferenceUnderFaults: engine counters equal the
// independently counted reference counters on every fault model, including
// a run that hits the step limit (both sides then cover the same executed
// steps).
func TestCountersEngineVsReferenceUnderFaults(t *testing.T) {
	g := graph.GNPConnected(36, 0.15, rng.New(9))
	plans := map[string]*fault.Plan{
		"none":  nil,
		"loss":  {Seed: 11, LinkLoss: 0.2},
		"churn": {Seed: 12, ChurnProb: 0.3, ChurnWindow: 6},
		"jam":   {Seed: 13, Jammers: []int{0, 2}, JamProb: 0.4},
		"crash": {Seed: 14, CrashFrac: 0.3, CrashWindow: 30},
		"sleep": {Seed: 15, SleepFrac: 0.5, SleepPeriod: 5, SleepAwake: 2},
		"storm": {Seed: 16, LinkLoss: 0.1, Jammers: []int{1}, JamProb: 0.3,
			CrashFrac: 0.15, CrashWindow: 20, SleepFrac: 0.2, SleepPeriod: 4, SleepAwake: 2},
	}
	r := NewRunner()
	for name, plan := range plans {
		for _, maxSteps := range []int{0, 25} { // 25 forces step-limited partial runs
			before := r.Counters()
			_, fastErr := r.Run(g, coin{}, Config{Seed: 21}, Options{MaxSteps: maxSteps, Fault: plan})
			if fastErr != nil && !errors.Is(fastErr, ErrStepLimit) {
				t.Fatalf("%s/max=%d: %v", name, maxSteps, fastErr)
			}
			eng := r.Counters().Diff(before)
			_, ref, refErr := RunReferenceObserved(g, coin{}, Config{Seed: 21}, maxSteps, plan)
			if refErr != nil && !errors.Is(refErr, ErrStepLimit) {
				t.Fatalf("%s/max=%d reference: %v", name, maxSteps, refErr)
			}
			if (fastErr == nil) != (refErr == nil) {
				t.Fatalf("%s/max=%d: step-limit disagreement (%v vs %v)", name, maxSteps, fastErr, refErr)
			}
			if eng != ref {
				t.Fatalf("%s/max=%d: counter divergence:\nengine    %+v\nreference %+v", name, maxSteps, eng, ref)
			}
			switch name {
			case "loss", "churn":
				if maxSteps == 0 && eng.LinksDropped == 0 {
					t.Errorf("%s: no links dropped — the plan never fired", name)
				}
			case "jam":
				if maxSteps == 0 && eng.JamNoise == 0 {
					t.Errorf("jam: no noise transmissions — the plan never fired")
				}
			case "crash":
				if maxSteps == 0 && eng.CrashSkips == 0 {
					t.Errorf("crash: no crash skips — the plan never fired")
				}
			case "sleep":
				if maxSteps == 0 && eng.SleepSkips == 0 {
					t.Errorf("sleep: no sleep skips — the plan never fired")
				}
			}
		}
	}
}

// TestRunReferenceObservedValidation: validation failures return zero
// counters and a nil result.
func TestRunReferenceObservedValidation(t *testing.T) {
	g := graph.Path(4)
	res, c, err := RunReferenceObserved(g, flood{}, Config{N: 7}, 0, nil)
	if err == nil || res != nil || !c.IsZero() {
		t.Fatalf("mismatched cfg.N: res=%v c=%+v err=%v", res, c, err)
	}
	res, c, err = RunReferenceObserved(g, flood{}, Config{}, -1, nil)
	if err == nil || res != nil || !c.IsZero() {
		t.Fatalf("negative MaxSteps: res=%v c=%+v err=%v", res, c, err)
	}
	bad := &fault.Plan{LinkLoss: 2}
	res, c, err = RunReferenceObserved(g, flood{}, Config{}, 0, bad)
	if err == nil || res != nil || !c.IsZero() {
		t.Fatalf("invalid plan: res=%v c=%+v err=%v", res, c, err)
	}
}

// TestCountersSurviveScratchPoison: a panicking program poisons the
// engine's scratch, which is rebuilt on the next run — but the counters
// are an observability ledger, not scratch, and must survive the rebuild.
func TestCountersSurviveScratchPoison(t *testing.T) {
	g := graph.Path(6)
	r := NewRunner()
	if _, err := r.Run(g, flood{}, Config{}, Options{}); err != nil {
		t.Fatal(err)
	}
	kept := r.Counters()
	func() {
		defer func() { recover() }()
		_, _ = r.Run(g, panicAt{step: 2}, Config{}, Options{})
	}()
	if got := r.Counters(); got.Diff(kept).Steps == 0 && got != kept {
		// The panicked run may have counted partial steps; what must not
		// happen is the ledger going backwards or zeroing.
		t.Fatalf("counters corrupted across panic: %+v -> %+v", kept, got)
	}
	poisoned := r.Counters()
	if _, err := r.Run(g, flood{}, Config{}, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := r.Counters().Diff(poisoned); got != kept {
		t.Fatalf("post-poison run window %+v differs from clean run %+v", got, kept)
	}
	var sink obs.Counters
	sink.Add(r.Counters()) // the ledger is consumable by the obs layer
	if sink.IsZero() {
		t.Fatal("ledger unexpectedly empty")
	}
}
