package det

import "adhocradio/internal/radio"

// SelectAndSend is Algorithm Select-and-Send (Section 4.2): a DFS traversal
// by a token carrying the source message, where the next unvisited neighbor
// is found with Procedure Echo and Algorithm Binary-Selection. Broadcasting
// completes in O(n log n) steps on any n-node undirected network.
//
// Part 1: in step 1 the source orders its neighbor with label i to transmit
// in step 2i; after the first reply (step 2j, from the lowest-labelled
// neighbor j) it stops the procedure in step 2j+1 and sends the token to j.
// Part 2: the token holder v wakes its neighborhood, runs Echo(parent(v), S)
// over the unvisited neighbors S, and then either returns the token (S
// empty), forwards it to the unique member, or selects one member via
// doubling echoes and Binary-Selection.
type SelectAndSend struct{}

var (
	_ radio.DeterministicProtocol = SelectAndSend{}
	_ radio.Waker                 = (*ssNode)(nil)
)

// Name implements radio.Protocol.
func (SelectAndSend) Name() string { return "select-and-send" }

// Deterministic implements radio.DeterministicProtocol.
func (SelectAndSend) Deterministic() bool { return true }

// NewNode implements radio.Protocol.
func (SelectAndSend) NewNode(label int, cfg radio.Config) radio.NodeProgram {
	n := &ssNode{
		label:      label,
		r:          cfg.LabelBound(),
		parent:     -1,
		firstChild: -1,
		initAt:     -1,
		tokenAt:    -1,
		resp:       responder{label: label},
	}
	if label == 0 {
		n.visited = true
	}
	return n
}

type ssNode struct {
	label      int
	r          int
	visited    bool
	parent     int // DFS parent; -1 until the token first arrives
	firstChild int // source only: the node j found in part 1
	halted     bool

	// Part-1 state.
	initAt   int // step at which to transmit the init reply; -1 none
	initDone bool
	tokenAt  int // source: step at which to transmit the first token; -1 none

	resp  responder
	coord *coordinator
}

// Act implements radio.NodeProgram.
func (n *ssNode) Act(t int) (bool, any) {
	// Source bootstrap: part 1 of the algorithm.
	if n.label == 0 && t == 1 {
		return true, initCmd{}
	}
	if n.label == 0 && n.tokenAt == t {
		n.tokenAt = -1
		return true, tokenCmd{From: 0, To: n.firstChild, StopInit: true}
	}

	if n.coord != nil {
		tx, payload := n.coord.act(t)
		if n.coord.done {
			return n.finishVisit(t)
		}
		return tx, payload
	}

	// Scheduled init reply (part 1 responder).
	if n.initAt == t && !n.initDone {
		n.initDone = true
		return true, echoReply{Label: n.label}
	}

	return n.resp.act(t, n.inSet)
}

// NextAct implements radio.Waker from the schedules Act reads: the source's
// step 1 and token step, the coordinator's command and decide steps, the
// init reply, and the responder's echo steps.
func (n *ssNode) NextAct(t int) int {
	next := never
	if n.label == 0 {
		next = earliest(earliest(next, t, 1), t, n.tokenAt)
	}
	if n.coord != nil {
		next = n.coord.nextAct(t, next)
	}
	if !n.initDone {
		next = earliest(next, t, n.initAt)
	}
	return n.resp.nextAct(t, next)
}

// finishVisit emits the token transfer decided by the completed visit.
func (n *ssNode) finishVisit(t int) (bool, any) {
	c := n.coord
	n.coord = nil
	if c.sEmpty {
		if n.label == 0 {
			// DFS complete: the source stops.
			n.halted = true
			return false, nil
		}
		// "v sends the token to parent(v) and stops."
		return true, tokenCmd{From: n.label, To: n.parent}
	}
	return true, tokenCmd{From: n.label, To: c.selected}
}

// inSet implements the membership predicate for echo commands: S is the set
// of unvisited neighbors of the coordinator.
func (n *ssNode) inSet(cmd *echoCmd) bool {
	return cmd.Mode == modeUnvisited && !n.visited
}

// Deliver implements radio.NodeProgram.
func (n *ssNode) Deliver(t int, msg radio.Message) {
	switch payload := msg.Payload.(type) {
	case echoCmd:
		n.resp.hear(payload)
	case initCmd:
		// "neighbor with label i transmits in step 2i" (labels i > 0).
		if n.label > 0 {
			n.initAt = 2 * n.label
		}
	case tokenCmd:
		if payload.StopInit {
			n.initAt = -1
		}
		if payload.To != n.label {
			return
		}
		if !n.visited {
			n.visited = true
			n.parent = payload.From
		}
		w := n.parent
		if n.label == 0 {
			w = n.firstChild
		}
		n.coord = newCoordinator(n.label, n.r, w, modeUnvisited, t+1)
	case echoReply:
		if n.coord != nil {
			n.coord.deliver(t, msg)
			return
		}
		// Source in part 1: first reply arrives at step 2j from neighbor j.
		if n.label == 0 && n.firstChild == -1 {
			n.firstChild = payload.Label
			n.tokenAt = t + 1
		}
	}
}
