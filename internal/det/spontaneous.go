package det

import "adhocradio/internal/radio"

// SpontaneousLinear is an O(n)-time deterministic broadcast in the
// spontaneous-transmission model of Section 1.1's reference [7] (where a
// matching Ω(n) lower bound holds even at constant radius, per [15]). The
// paper cites the O(n) result to contrast with its own Theorem 2 bound for
// the standard model; this implementation realizes the same two-phase idea:
//
//	Phase 1 (steps 1..R+1): node with label v transmits its label in step
//	v+1 — spontaneously, before holding the source message. Each step has
//	exactly one transmitter network-wide, so every node receives exactly
//	the announcements of its neighbors: after R+1 steps everyone knows its
//	neighborhood. The source's announcement carries the source message.
//
//	Phase 2 (steps R+2..R+1+2n): with neighborhoods known, the linear-time
//	DFS token walk of DFSNeighborhood finishes the broadcast.
//
// Total time (R+1) + 2n = O(n).
type SpontaneousLinear struct{}

var (
	_ radio.DeterministicProtocol = SpontaneousLinear{}
	_ radio.SpontaneousProtocol   = SpontaneousLinear{}
	_ radio.Waker                 = (*spontNode)(nil)
)

// Name implements radio.Protocol.
func (SpontaneousLinear) Name() string { return "spontaneous-linear" }

// Deterministic implements radio.DeterministicProtocol.
func (SpontaneousLinear) Deterministic() bool { return true }

// Spontaneous implements radio.SpontaneousProtocol.
func (SpontaneousLinear) Spontaneous() bool { return true }

// NewNode implements radio.Protocol.
func (SpontaneousLinear) NewNode(label int, cfg radio.Config) radio.NodeProgram {
	return &spontNode{label: label, r: cfg.LabelBound(), cfg: cfg}
}

// announce is the phase-1 payload: the transmitter's label. Only the
// source's announcement carries the source message.
type announce struct {
	Label      int
	FromSource bool
}

// CarriesSourceMessage implements radio.SourceCarrier.
func (a announce) CarriesSourceMessage() bool { return a.FromSource }

type spontNode struct {
	label     int
	r         int
	cfg       radio.Config
	neighbors []int
	dfs       *dfsNode // phase-2 program, built after discovery
}

// phase1End returns the last step of the discovery phase.
func (n *spontNode) phase1End() int { return n.r + 1 }

// Act implements radio.NodeProgram.
func (n *spontNode) Act(t int) (bool, any) {
	if t <= n.phase1End() {
		if t == n.label+1 {
			return true, announce{Label: n.label, FromSource: n.label == 0}
		}
		return false, nil
	}
	n.buildDFS()
	return n.dfs.Act(t - n.phase1End())
}

// buildDFS builds the phase-2 program from the neighborhood phase 1
// discovered, on the first call after phase 1.
func (n *spontNode) buildDFS() {
	if n.dfs == nil {
		n.dfs = DFSNeighborhood{}.NewNodeWithNeighbors(n.label, n.neighbors, n.cfg).(*dfsNode)
	}
}

// NextAct implements radio.Waker: the node's announce step, then the first
// step after phase 1 (Act builds the DFS program there), then the DFS
// program's hint shifted by phase 1.
func (n *spontNode) NextAct(t int) int {
	end := n.phase1End()
	if t <= end {
		if at := n.label + 1; at >= t && at <= end {
			return at
		}
		return end + 1
	}
	if n.dfs == nil {
		return t
	}
	next := n.dfs.NextAct(t - end)
	if next == never {
		return never
	}
	return next + end
}

// Deliver implements radio.NodeProgram.
func (n *spontNode) Deliver(t int, msg radio.Message) {
	if t <= n.phase1End() {
		if a, ok := msg.Payload.(announce); ok {
			n.neighbors = append(n.neighbors, a.Label)
		}
		return
	}
	n.buildDFS()
	n.dfs.Deliver(t-n.phase1End(), msg)
}
