package det

import "adhocradio/internal/radio"

// CompleteLayered is Algorithm Complete-Layered (Section 4.3): broadcasting
// in O(n + D log n) steps on undirected complete layered networks, refuting
// the claimed Ω(n log D) lower bound of [10] for the undirected case.
//
// Phase 1 is the same bootstrap as Select-and-Send part 1 and selects a
// leader v_1 in layer 1. In phase k+1 the leader v_k transmits the source
// message (waking the whole layer L_{k+1} at once — in a complete layered
// network every L_{k+1} node neighbors every L_k node), then runs
// Echo(v_{k-1}, S) over S = {neighbors first informed by that wake
// transmission} = L_{k+1}, selecting the next leader v_{k+1} by doubling
// echoes and Binary-Selection. An empty S means k = D and the algorithm
// stops. Phase 1 costs O(n); each of the D-1 later phases costs O(log n).
type CompleteLayered struct{}

var (
	_ radio.DeterministicProtocol = CompleteLayered{}
	_ radio.Waker                 = (*clNode)(nil)
)

// Name implements radio.Protocol.
func (CompleteLayered) Name() string { return "complete-layered" }

// Deterministic implements radio.DeterministicProtocol.
func (CompleteLayered) Deterministic() bool { return true }

// NewNode implements radio.Protocol.
func (CompleteLayered) NewNode(label int, cfg radio.Config) radio.NodeProgram {
	n := &clNode{
		label:      label,
		r:          cfg.LabelBound(),
		layer:      -1,
		informedAt: -1,
		initAt:     -1,
		tokenAt:    -1,
		firstChild: -1,
		resp:       responder{label: label},
	}
	if label == 0 {
		n.layer = 0
		n.informedAt = 0
	}
	return n
}

type clNode struct {
	label      int
	r          int
	layer      int
	informedAt int
	halted     bool

	// Phase-1 state (mirrors Select-and-Send part 1).
	initAt     int
	initDone   bool
	tokenAt    int
	firstChild int

	prev  int // v_{k-1}, learned when appointed leader
	resp  responder
	coord *coordinator
}

// Act implements radio.NodeProgram.
func (n *clNode) Act(t int) (bool, any) {
	if n.halted {
		return false, nil
	}
	if n.label == 0 && t == 1 {
		return true, initCmd{}
	}
	if n.label == 0 && n.tokenAt == t {
		n.tokenAt = -1
		// Appoint v_1 := j; v_1 knows v_0 = 0 from the From field.
		return true, tokenCmd{From: 0, To: n.firstChild, StopInit: true, Layer: 1}
	}

	if n.coord != nil {
		tx, payload := n.coord.act(t)
		if n.coord.done {
			return n.finishPhase(t)
		}
		return tx, payload
	}

	if n.initAt == t && !n.initDone {
		n.initDone = true
		return true, echoReply{Label: n.label}
	}

	return n.resp.act(t, n.inSet)
}

// NextAct implements radio.Waker as ssNode's does, from the same phase-1,
// coordinator and responder schedules; a halted node never acts again.
func (n *clNode) NextAct(t int) int {
	if n.halted {
		return never
	}
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

// finishPhase emits the leader appointment (or the terminal stop order).
func (n *clNode) finishPhase(t int) (bool, any) {
	c := n.coord
	n.coord = nil
	if c.sEmpty {
		// |S| = 0: this is the last layer (D = k); order everyone to stop.
		n.halted = true
		return true, stopCmd{}
	}
	return true, tokenCmd{From: n.label, To: c.selected, Layer: n.layer + 1}
}

// inSet reports membership in S: first informed exactly at the leader's
// wake transmission.
func (n *clNode) inSet(cmd *echoCmd) bool {
	return cmd.Mode == modeWokenAt && n.informedAt == cmd.WakeStep
}

// Deliver implements radio.NodeProgram.
func (n *clNode) Deliver(t int, msg radio.Message) {
	if n.informedAt == -1 {
		n.informedAt = t
	}
	switch payload := msg.Payload.(type) {
	case echoCmd:
		n.resp.hear(payload)
	case initCmd:
		if n.label > 0 {
			n.initAt = 2 * n.label
			n.layer = 1
		}
	case tokenCmd:
		if payload.StopInit {
			n.initAt = -1
		}
		if payload.To != n.label {
			return
		}
		n.layer = payload.Layer
		n.prev = payload.From
		// Phase k+1: the first command doubles as the wake transmission.
		n.coord = newCoordinator(n.label, n.r, n.prev, modeWokenAt, t+1)
	case echoReply:
		if n.coord != nil {
			n.coord.deliver(t, msg)
			return
		}
		if n.label == 0 && n.firstChild == -1 {
			n.firstChild = payload.Label
			n.tokenAt = t + 1
		}
	case stopCmd:
		n.halted = true
	}
}
