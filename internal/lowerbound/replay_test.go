package lowerbound

import (
	"testing"

	"adhocradio/internal/radio"
)

// slotted is a test-local round-robin: an informed node transmits at every
// step congruent to its label modulo R+1, and as a radio.Waker it names the
// next such step. With hide set, every program is wrapped so that NextAct
// is out of sight and the builders must ask it at every step. acts counts
// the Act calls of all programs.
type slotted struct {
	hide bool
	acts *int
}

func (slotted) Name() string        { return "slotted" }
func (slotted) Deterministic() bool { return true }

func (s slotted) NewNode(label int, cfg radio.Config) radio.NodeProgram {
	n := &slottedNode{label: label, period: cfg.LabelBound() + 1, acts: s.acts}
	if s.hide {
		return struct{ radio.NodeProgram }{n}
	}
	return n
}

type slottedNode struct {
	label, period int
	acts          *int
}

func (n *slottedNode) Act(t int) (bool, any) {
	*n.acts++
	return t%n.period == n.label%n.period, nil
}

func (n *slottedNode) Deliver(int, radio.Message) {}

func (n *slottedNode) NextAct(t int) int {
	return t + (n.label%n.period-t%n.period+n.period)%n.period
}

// TestReplayHintsSkipActs attacks both builders with a hinting victim and
// with the same victim behind a wrapper that hides its hints: the hints
// must save Act calls and change nothing in the construction.
func TestReplayHintsSkipActs(t *testing.T) {
	cases := []struct {
		name  string
		build func(p radio.DeterministicProtocol) (string, error)
	}{
		{"theorem2", func(p radio.DeterministicProtocol) (string, error) {
			c, err := Build(p, Params{N: 256, D: 16, Force: true})
			if err != nil {
				return "", err
			}
			return constructionDigest(c), nil
		}},
		{"directed", func(p radio.DeterministicProtocol) (string, error) {
			c, err := BuildDirectedLayered(p, DirectedParams{N: 128, D: 4})
			if err != nil {
				return "", err
			}
			return directedDigest(c), nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hintedActs, hiddenActs int
			hinted, err := tc.build(slotted{acts: &hintedActs})
			if err != nil {
				t.Fatal(err)
			}
			hidden, err := tc.build(slotted{hide: true, acts: &hiddenActs})
			if err != nil {
				t.Fatal(err)
			}
			if hinted != hidden {
				t.Fatalf("hints changed the construction: digest %s with hints, %s without", hinted, hidden)
			}
			if hintedActs >= hiddenActs {
				t.Fatalf("hints saved no Act calls: %d with hints, %d without", hintedActs, hiddenActs)
			}
			t.Logf("%d Act calls with hints, %d without", hintedActs, hiddenActs)
		})
	}
}
