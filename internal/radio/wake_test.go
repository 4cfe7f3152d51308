package radio

import (
	"errors"
	"runtime/debug"
	"strings"
	"testing"

	"adhocradio/internal/fault"
	"adhocradio/internal/graph"
	"adhocradio/internal/rng"
)

// actLog counts the Act calls a slotted run makes, and those that fall
// outside a node's slot (steps its wake hint never names).
type actLog struct {
	calls, offSlot int
}

// slotted is round-robin with a short period, so slots are shared and
// fronts collide: node v may transmit only at steps t ≡ v (mod period),
// and it says so through NextAct. Every Act call is logged.
type slotted struct {
	period int
	log    *actLog
}

func (p slotted) Name() string { return "slotted" }
func (p slotted) NewNode(label int, cfg Config) NodeProgram {
	return &slottedNode{label: label, period: p.period, log: p.log}
}

type slottedNode struct {
	label, period int
	log           *actLog
}

func (n *slottedNode) Act(t int) (bool, any) {
	n.log.calls++
	if t%n.period != n.label%n.period {
		n.log.offSlot++
		return false, nil
	}
	return true, n.label
}

func (n *slottedNode) Deliver(t int, msg Message) {}

func (n *slottedNode) NextAct(t int) int {
	wait := n.label%n.period - t%n.period
	if wait < 0 {
		wait += n.period
	}
	return t + wait
}

// slotCalls is the number of Act calls a run makes when it asks each
// informed node at its slot steps only, through step steps.
func slotCalls(res *Result, period, steps int) int {
	calls := 0
	for v, at := range res.InformedAt {
		if at < 0 {
			continue
		}
		for s := at + 1; s <= steps; s++ {
			if s%period == v%period {
				calls++
			}
		}
	}
	return calls
}

// TestWakeHintsSkipIdleActs pins the wake-hint contract: the engine asks a
// Waker only at the steps its hint names, while the reference oracle asks
// every informed node at every step, and both agree on every Result and
// counter field.
func TestWakeHintsSkipIdleActs(t *testing.T) {
	g := graph.GNPConnected(40, 0.15, rng.New(4))
	const period, budget = 7, 400
	var both, fast, ref actLog
	assertMatchesReference(t, g, slotted{period: period, log: &both}, Config{}, budget)
	res, err := Run(g, slotted{period: period, log: &fast}, Config{}, Options{MaxSteps: budget})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunReferenceObserved(g, slotted{period: period, log: &ref}, Config{}, budget, nil); err != nil {
		t.Fatal(err)
	}
	if fast.offSlot != 0 {
		t.Fatalf("engine asked %d of %d Acts outside the hinted slots", fast.offSlot, fast.calls)
	}
	if want := slotCalls(res, period, res.StepsSimulated); fast.calls != want {
		t.Fatalf("engine made %d Act calls, want the %d hinted ones", fast.calls, want)
	}
	if ref.offSlot == 0 || ref.calls <= fast.calls {
		t.Fatalf("reference should poll every step: %d calls (%d off-slot) vs engine %d",
			ref.calls, ref.offSlot, fast.calls)
	}
}

// TestContractWrapperForwardsHints runs the slotted program through
// WithContractChecks: the wrapper forwards the inner hints, so the engine
// makes exactly the Act calls it makes unwrapped, with no violation.
func TestContractWrapperForwardsHints(t *testing.T) {
	g := graph.GNPConnected(40, 0.15, rng.New(4))
	var bare, wrapped actLog
	var violations []error
	if _, err := Run(g, slotted{period: 7, log: &bare}, Config{}, Options{MaxSteps: 300}); err != nil {
		t.Fatal(err)
	}
	p := WithContractChecks(slotted{period: 7, log: &wrapped}, func(err error) { violations = append(violations, err) })
	if _, err := Run(g, p, Config{}, Options{MaxSteps: 300}); err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("violations: %v", violations)
	}
	if wrapped != bare {
		t.Fatalf("wrapped run asked Act %+v, unwrapped %+v", wrapped, bare)
	}
}

// pastHint is a program whose hint names the step before the one asked
// about.
type pastHint struct{ flood }

func (pastHint) NewNode(label int, cfg Config) NodeProgram { return &pastHintNode{} }

type pastHintNode struct{ floodNode }

func (*pastHintNode) NextAct(t int) int { return t - 1 }

func TestContractCatchesPastWakeHint(t *testing.T) {
	var got []error
	p := WithContractChecks(pastHint{}, func(err error) { got = append(got, err) })
	w, ok := p.NewNode(0, Config{N: 2}).(Waker)
	if !ok {
		t.Fatal("wrapped program is not a Waker")
	}
	if next := w.NextAct(5); next != 4 {
		t.Fatalf("NextAct(5) = %d, want the inner hint 4", next)
	}
	if len(got) != 1 || !strings.Contains(got[0].Error(), "wake hint names step 4") {
		t.Fatalf("violations = %v", got)
	}
	var cv *ContractViolationError
	if !errors.As(got[0], &cv) || cv.Node != 0 || cv.Step != 5 {
		t.Fatalf("violation fields = %+v", got[0])
	}
}

// panicStack runs collisionPanicAt on Clique(100) with collision detection
// under plan and returns the stack recovered from the listener's panic at
// step 4, so a test can tell which tally delivered the collision.
func panicStack(t *testing.T, plan *fault.Plan) string {
	t.Helper()
	var stack string
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic from listener")
			}
			stack = string(debug.Stack())
		}()
		_, _ = NewRunner().Run(graph.Clique(100), collisionPanicAt{step: 4, payload: "msg"}, Config{},
			Options{MaxSteps: 20, RunToMaxSteps: true, CollisionDetection: true, Fault: plan})
	}()
	return stack
}

// TestNodeFaultPlansTakeCleanTallies pins crash-only and sleep-only plans to
// the clean tallies: their dense steps must reach the bit-parallel kernel,
// while a plan that also drops arcs still takes tallyFaulty.
func TestNodeFaultPlansTakeCleanTallies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		plan   *fault.Plan
		via    string
		notVia string
	}{
		{"crash", &fault.Plan{Seed: 3, CrashFrac: 0.2, CrashWindow: 40}, "(*Runner).tallyBitset", "(*Runner).tallyFaulty"},
		{"sleep", &fault.Plan{Seed: 4, SleepFrac: 0.4, SleepPeriod: 6, SleepAwake: 3}, "(*Runner).tallyBitset", "(*Runner).tallyFaulty"},
		{"crash+loss", &fault.Plan{Seed: 5, CrashFrac: 0.2, CrashWindow: 40, LinkLoss: 0.1}, "(*Runner).tallyFaulty", "(*Runner).tallyBitset"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stack := panicStack(t, tc.plan)
			if !strings.Contains(stack, tc.via) || strings.Contains(stack, tc.notVia) {
				t.Fatalf("%s plan: collision not delivered through %s:\n%s", tc.name, tc.via, stack)
			}
		})
	}
}
