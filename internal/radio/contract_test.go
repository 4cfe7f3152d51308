package radio

import (
	"errors"
	"strings"
	"testing"

	"adhocradio/internal/graph"
)

func TestContractCleanProtocolPasses(t *testing.T) {
	var violations []error
	p := WithContractChecks(flood{}, func(err error) { violations = append(violations, err) })
	if _, err := Run(graph.Path(6), p, Config{}, Options{}); err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("clean protocol reported %d violations: %v", len(violations), violations)
	}
}

func TestContractPreservesMarkers(t *testing.T) {
	p := WithContractChecks(flood{}, func(error) {})
	if p.Name() != "flood" {
		t.Fatalf("name = %q", p.Name())
	}
	if sp, ok := p.(SpontaneousProtocol); !ok || sp.Spontaneous() {
		t.Fatal("spontaneity marker mishandled")
	}
	if d, ok := p.(DeterministicProtocol); !ok || d.Deterministic() {
		t.Fatal("determinism marker mishandled for a non-deterministic inner protocol")
	}
	// An inner program without wake hints is asked at every step.
	if w, ok := p.NewNode(0, Config{N: 2}).(Waker); !ok || w.NextAct(9) != 9 {
		t.Fatal("wrapped program without hints must answer NextAct(t) = t")
	}
}

// misbehaving simulators/adversaries are what the checker exists for: drive
// a wrapped program by hand with bad call sequences.
func TestContractCatchesDecreasingActSteps(t *testing.T) {
	var got []error
	p := WithContractChecks(flood{}, func(err error) { got = append(got, err) })
	prog := p.NewNode(0, Config{N: 2})
	prog.Act(5)
	prog.Act(5)
	prog.Act(3)
	if len(got) != 2 {
		t.Fatalf("violations = %v", got)
	}
	for _, err := range got {
		if !strings.Contains(err.Error(), "strictly increasing") {
			t.Fatalf("wrong violation: %v", err)
		}
	}
}

func TestContractCatchesActBeforeDeliver(t *testing.T) {
	var got []error
	p := WithContractChecks(flood{}, func(err error) { got = append(got, err) })
	prog := p.NewNode(3, Config{N: 8}) // non-source
	prog.Act(1)
	if len(got) != 1 || !strings.Contains(got[0].Error(), "before any Deliver") {
		t.Fatalf("violations = %v", got)
	}
	// The source may act immediately.
	got = nil
	src := p.NewNode(0, Config{N: 8})
	src.Act(1)
	if len(got) != 0 {
		t.Fatalf("source flagged: %v", got)
	}
}

func TestContractCatchesHalfDuplexBreach(t *testing.T) {
	var got []error
	p := WithContractChecks(flood{}, func(err error) { got = append(got, err) })
	prog := p.NewNode(0, Config{N: 2})
	prog.Act(1) // flood transmits
	prog.Deliver(1, Message{From: 1, Payload: "x"})
	if len(got) != 1 || !strings.Contains(got[0].Error(), "half-duplex") {
		t.Fatalf("violations = %v", got)
	}
}

func TestContractCatchesSelfDelivery(t *testing.T) {
	var got []error
	p := WithContractChecks(flood{}, func(err error) { got = append(got, err) })
	prog := p.NewNode(2, Config{N: 4})
	prog.Deliver(1, Message{From: 2, Payload: "x"})
	if len(got) != 1 || !strings.Contains(got[0].Error(), "own transmission") {
		t.Fatalf("violations = %v", got)
	}
}

// TestContractViolationFieldsTable violates each clause of the NodeProgram
// contract in turn and asserts the exact ContractViolationError the checker
// reports — node, step, and reason — not just that something fired.
func TestContractViolationFieldsTable(t *testing.T) {
	type want struct {
		node   int
		step   int
		reason string // substring of the Reason field
	}
	cases := []struct {
		name  string
		label int
		drive func(prog NodeProgram)
		want  []want
	}{
		{
			name:  "act with non-positive step",
			label: 0,
			drive: func(p NodeProgram) { p.Act(0) },
			// t=0 also fails strict monotonicity against the zero value, so
			// both clauses fire on the single call.
			want: []want{
				{node: 0, step: 0, reason: "non-positive step"},
				{node: 0, step: 0, reason: "strictly increasing"},
			},
		},
		{
			name:  "double act at one step",
			label: 0,
			drive: func(p NodeProgram) { p.Act(2); p.Act(2) },
			want:  []want{{node: 0, step: 2, reason: "strictly increasing (previous 2)"}},
		},
		{
			name:  "act before deliver on a non-source node",
			label: 3,
			drive: func(p NodeProgram) { p.Act(1) },
			want:  []want{{node: 3, step: 1, reason: "Act before any Deliver"}},
		},
		{
			name:  "deliver steps going backwards",
			label: 2,
			drive: func(p NodeProgram) {
				p.Deliver(3, Message{From: 9, Payload: "x"})
				p.Deliver(2, Message{From: 9, Payload: "x"})
			},
			want: []want{{node: 2, step: 2, reason: "went backwards (previous 3)"}},
		},
		{
			name:  "deliver for a past step",
			label: 0,
			drive: func(p NodeProgram) {
				p.Act(4)
				p.Deliver(3, Message{From: 9, Payload: "x"})
			},
			want: []want{{node: 0, step: 3, reason: "before the last Act (4)"}},
		},
		{
			name:  "half-duplex breach",
			label: 0,
			drive: func(p NodeProgram) {
				p.Act(1) // flood transmits
				p.Deliver(1, Message{From: 9, Payload: "x"})
			},
			want: []want{{node: 0, step: 1, reason: "half-duplex"}},
		},
		{
			name:  "self delivery",
			label: 2,
			drive: func(p NodeProgram) { p.Deliver(1, Message{From: 2, Payload: "x"}) },
			want:  []want{{node: 2, step: 1, reason: "own transmission"}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got []error
			p := WithContractChecks(flood{}, func(err error) { got = append(got, err) })
			c.drive(p.NewNode(c.label, Config{N: 8}))
			if len(got) != len(c.want) {
				t.Fatalf("got %d violations %v, want %d", len(got), got, len(c.want))
			}
			for i, w := range c.want {
				var cv *ContractViolationError
				if !errors.As(got[i], &cv) {
					t.Fatalf("violation %d is a %T, want *ContractViolationError", i, got[i])
				}
				if cv.Node != w.node || cv.Step != w.step || !strings.Contains(cv.Reason, w.reason) {
					t.Errorf("violation %d = {Node:%d Step:%d Reason:%q}, want {Node:%d Step:%d Reason:~%q}",
						i, cv.Node, cv.Step, cv.Reason, w.node, w.step, w.reason)
				}
			}
		})
	}
}

func TestContractViolationErrorFormat(t *testing.T) {
	err := &ContractViolationError{Node: 7, Step: 42, Reason: "boom"}
	for _, want := range []string{"node 7", "step 42", "boom"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err.Error(), want)
		}
	}
}
