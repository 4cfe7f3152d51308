package det

import (
	"adhocradio/internal/bitset"
	"adhocradio/internal/radio"
)

// DFSNeighborhood is the linear-time broadcasting algorithm of Section
// 1.1's stronger knowledge model (reference [3], following Awerbuch's
// distributed DFS [2]): every node knows its neighbors' labels a priori. A
// token carrying the source message and the set of already-visited nodes
// walks the network depth-first; each hop is a single collision-free
// transmission, so broadcasting completes within 2n steps. Comparing it to
// Select-and-Send quantifies what the Θ(log n) Echo/Binary-Selection
// machinery pays for not knowing the neighborhood.
type DFSNeighborhood struct{}

var (
	_ radio.DeterministicProtocol = DFSNeighborhood{}
	_ radio.NeighborAwareProtocol = DFSNeighborhood{}
	_ radio.Waker                 = (*dfsNode)(nil)
)

// Name implements radio.Protocol.
func (DFSNeighborhood) Name() string { return "dfs-neighborhood" }

// Deterministic implements radio.DeterministicProtocol.
func (DFSNeighborhood) Deterministic() bool { return true }

// NewNode implements radio.Protocol. DFSNeighborhood is only meaningful
// with neighborhood knowledge; a node built without it stays silent (and a
// simulation would rightly fail its step budget).
func (DFSNeighborhood) NewNode(label int, cfg radio.Config) radio.NodeProgram {
	return &dfsNode{label: label}
}

// NewNodeWithNeighbors implements radio.NeighborAwareProtocol.
func (DFSNeighborhood) NewNodeWithNeighbors(label int, neighbors []int, cfg radio.Config) radio.NodeProgram {
	n := &dfsNode{label: label, neighbors: neighbors, parent: -1}
	if label == 0 {
		n.visited = bitset.New(cfg.LabelBound() + 1)
		n.visited.Add(0)
		n.holdsToken = true
		n.tokenAt = 1
	}
	return n
}

// dfsToken is the token message: it carries the source message, the target
// of this hop, and the global visited set. The radio model places no bound
// on message size (messages may carry whole histories, cf. Section 3), so
// shipping the visited set is legitimate.
type dfsToken struct {
	To      int
	From    int
	Visited *bitset.Set
}

type dfsNode struct {
	label     int
	neighbors []int
	parent    int

	holdsToken bool
	tokenAt    int // step at which to transmit the token onward
	visited    *bitset.Set
	done       bool
}

// Act implements radio.NodeProgram.
func (n *dfsNode) Act(t int) (bool, any) {
	if !n.holdsToken || n.done || t != n.tokenAt {
		return false, nil
	}
	// Pick the lowest-labelled unvisited neighbor; if none, return the
	// token to the parent (or stop at the source).
	next := -1
	for _, w := range n.neighbors {
		if !n.visited.Contains(w) && (next == -1 || w < next) {
			next = w
		}
	}
	n.holdsToken = false
	if next == -1 {
		if n.label == 0 {
			n.done = true
			return false, nil
		}
		return true, dfsToken{To: n.parent, From: n.label, Visited: n.visited}
	}
	v := n.visited.Clone()
	v.Add(next)
	return true, dfsToken{To: next, From: n.label, Visited: v}
}

// NextAct implements radio.Waker: a node acts only at tokenAt, while it
// holds the token.
func (n *dfsNode) NextAct(t int) int {
	if !n.holdsToken || n.done {
		return never
	}
	return earliest(never, t, n.tokenAt)
}

// Deliver implements radio.NodeProgram.
func (n *dfsNode) Deliver(t int, msg radio.Message) {
	tok, ok := msg.Payload.(dfsToken)
	if !ok || tok.To != n.label {
		return
	}
	if n.parent == -1 && n.label != 0 {
		n.parent = tok.From
	}
	n.holdsToken = true
	n.tokenAt = t + 1
	n.visited = tok.Visited
}
