package radio

import (
	"fmt"
	"sync"
)

// ContractViolationError reports a breach of the NodeProgram calling
// contract observed by WithContractChecks.
type ContractViolationError struct {
	Node   int
	Step   int
	Reason string
}

// Error implements error.
func (e *ContractViolationError) Error() string {
	return fmt.Sprintf("radio: contract violation at node %d, step %d: %s", e.Node, e.Step, e.Reason)
}

// WithContractChecks wraps a protocol so that every node program asserts
// the simulator↔program contract at run time:
//
//   - Act(t) is called at most once per step, with strictly increasing t;
//   - Deliver(t, m) refers to the current step (never the past), and a
//     program never receives a message in a step where it transmitted
//     (half-duplex);
//   - the first call a non-source program sees is a Deliver (a node cannot
//     act before it is informed), unless the protocol declares spontaneous
//     transmissions;
//   - a wake hint (Waker) never names a step before the one asked about.
//
// The wrapped program is a Waker: it forwards the inner program's hints,
// so a wrapped run asks Act exactly when an unwrapped one does, and an
// inner program without hints answers with the step asked about, which
// means "ask me at every step", as before.
//
// Violations are reported through the callback (tests pass t.Errorf-like
// sinks); the wrapped program keeps working so a single run surfaces every
// breach. Protocol authors run their implementation through this wrapper in
// tests; the repository's own suites do the same for every built-in
// protocol — and the Section 3 adversary's replay discipline is checked
// with it too.
func WithContractChecks(p Protocol, report func(error)) Protocol {
	cp := &contractProtocol{inner: p, report: report}
	if _, ok := p.(NeighborAwareProtocol); ok {
		return &contractProtocolNA{contractProtocol: cp}
	}
	return cp
}

type contractProtocol struct {
	inner  Protocol
	report func(error)
	mu     sync.Mutex
}

func (c *contractProtocol) Name() string { return c.inner.Name() }

// Spontaneous forwards the inner protocol's spontaneity declaration.
func (c *contractProtocol) Spontaneous() bool {
	sp, ok := c.inner.(SpontaneousProtocol)
	return ok && sp.Spontaneous()
}

func (c *contractProtocol) Deterministic() bool {
	d, ok := c.inner.(DeterministicProtocol)
	return ok && d.Deterministic()
}

func (c *contractProtocol) NewNode(label int, cfg Config) NodeProgram {
	return c.wrap(label, c.inner.NewNode(label, cfg))
}

func (c *contractProtocol) wrap(label int, prog NodeProgram) NodeProgram {
	return &contractNode{
		inner:       prog,
		label:       label,
		report:      c.syncReport,
		spontaneous: c.Spontaneous(),
	}
}

// syncReport serializes violation reports across node programs: parallel
// harnesses drive different nodes from different goroutines, and the
// callbacks tests pass (appending to a shared slice, say) are not
// necessarily safe to call concurrently.
func (c *contractProtocol) syncReport(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.report(err)
}

// contractProtocolNA adds the neighbor-aware constructor when the inner
// protocol has one.
type contractProtocolNA struct {
	*contractProtocol
}

func (c *contractProtocolNA) NewNodeWithNeighbors(label int, neighbors []int, cfg Config) NodeProgram {
	na := c.inner.(NeighborAwareProtocol)
	return c.wrap(label, na.NewNodeWithNeighbors(label, neighbors, cfg))
}

type contractNode struct {
	inner       NodeProgram
	label       int
	report      func(error)
	spontaneous bool

	lastActStep     int
	lastDeliverStep int
	transmittedAt   int // step of the most recent transmission; 0 none
	sawAnyCall      bool
	delivered       bool
}

func (n *contractNode) violate(step int, format string, args ...any) {
	n.report(&ContractViolationError{Node: n.label, Step: step, Reason: fmt.Sprintf(format, args...)})
}

// Act implements NodeProgram with assertions.
func (n *contractNode) Act(t int) (bool, any) {
	if t <= 0 {
		n.violate(t, "Act with non-positive step")
	}
	if t <= n.lastActStep {
		n.violate(t, "Act steps not strictly increasing (previous %d)", n.lastActStep)
	}
	if !n.sawAnyCall && n.label != 0 && !n.spontaneous && !n.delivered {
		n.violate(t, "Act before any Deliver on a non-source node")
	}
	n.sawAnyCall = true
	n.lastActStep = t
	tx, payload := n.inner.Act(t)
	if tx {
		n.transmittedAt = t
	}
	return tx, payload
}

// Deliver implements NodeProgram with assertions.
func (n *contractNode) Deliver(t int, msg Message) {
	if t < n.lastDeliverStep {
		n.violate(t, "Deliver steps went backwards (previous %d)", n.lastDeliverStep)
	}
	if t < n.lastActStep {
		n.violate(t, "Deliver for a step before the last Act (%d)", n.lastActStep)
	}
	if n.transmittedAt == t {
		n.violate(t, "Deliver in a step the node transmitted (half-duplex breach)")
	}
	if msg.From == n.label {
		n.violate(t, "node received its own transmission")
	}
	n.sawAnyCall = true
	n.delivered = true
	n.lastDeliverStep = t
	n.inner.Deliver(t, msg)
}

// NextAct implements Waker by forwarding the inner program's hint.
func (n *contractNode) NextAct(t int) int {
	w, ok := n.inner.(Waker)
	if !ok {
		return t
	}
	next := w.NextAct(t)
	if next < t {
		n.violate(t, "wake hint names step %d, before the step asked about", next)
	}
	return next
}

// DeliverCollision forwards the collision-detection variant.
func (n *contractNode) DeliverCollision(t int) {
	if cl, ok := n.inner.(CollisionListener); ok {
		cl.DeliverCollision(t)
	}
}
