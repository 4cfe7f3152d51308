package det

import "adhocradio/internal/radio"

// RoundRobin is the classic deterministic baseline mentioned in Section 4.2:
// the informed node with label v transmits exactly at steps t with
// t ≡ v (mod R+1). Each round of R+1 steps gives every informed node one
// collision-free slot, so the front advances at least one layer per round:
// broadcasting completes within O(nD) steps (more precisely (R+1)·D).
type RoundRobin struct{}

var (
	_ radio.DeterministicProtocol = RoundRobin{}
	_ radio.Waker                 = (*rrNode)(nil)
)

// Name implements radio.Protocol.
func (RoundRobin) Name() string { return "round-robin" }

// Deterministic implements radio.DeterministicProtocol.
func (RoundRobin) Deterministic() bool { return true }

// NewNode implements radio.Protocol.
func (RoundRobin) NewNode(label int, cfg radio.Config) radio.NodeProgram {
	return &rrNode{label: label, period: cfg.LabelBound() + 1}
}

type rrNode struct {
	label  int
	period int
}

// rrPayload is the round-robin broadcast message (carries the source
// message).
type rrPayload struct{}

// Act implements radio.NodeProgram.
func (n *rrNode) Act(t int) (bool, any) {
	if t%n.period == n.label%n.period {
		return true, rrPayload{}
	}
	return false, nil
}

// NextAct implements radio.Waker: the first step >= t in the node's slot.
func (n *rrNode) NextAct(t int) int {
	wait := n.label%n.period - t%n.period
	if wait < 0 {
		wait += n.period
	}
	return t + wait
}

// Deliver implements radio.NodeProgram.
func (n *rrNode) Deliver(t int, msg radio.Message) {}
