// Package radio implements the synchronous radio network model of the paper
// (Section 1.3) as a discrete-event simulator.
//
// Time proceeds in synchronous steps 1, 2, 3, ... In every step each node
// acts either as a transmitter or as a receiver. A receiver gets a message
// iff exactly one of its in-neighbors transmits in that step; when two or
// more transmit, a collision occurs, and the node cannot distinguish a
// collision from silence. Only nodes that already hold the source message
// may transmit ("no spontaneous transmissions"); the simulator enforces this
// by never asking an uninformed node to act. (Optional model variants relax
// this and other assumptions: SpontaneousProtocol, NeighborAwareProtocol,
// Options.CollisionDetection.)
//
// Algorithms are implemented as per-node state machines (NodeProgram). The
// contract mirrors the knowledge model of the paper: a program is created
// knowing only its own label and the global parameters every node knows (the
// label bound R and, for some procedures, an assumed radius). It observes
// the world only through Deliver calls, which occur exactly when the model
// says a message is received. Silent steps and collided steps produce no
// call — indistinguishable, as required.
package radio

import (
	"context"
	"errors"
	"fmt"

	"adhocradio/internal/fault"
	"adhocradio/internal/graph"
)

// Config carries the a-priori knowledge shared by all nodes, matching
// Section 1.3: each node knows its own label and the bound R such that all
// labels are in {0,...,R} (R is linear in n). Seed drives all protocol
// randomness; deterministic protocols ignore it.
//
//radiolint:mirror
type Config struct {
	// N is the number of nodes. Protocols faithful to the paper must not
	// depend on it beyond deriving R; it is provided for harness use.
	N int
	// R is the label bound: labels lie in {0,...,R}. Zero means "use N-1".
	R int
	// Seed is the master random seed. Each node derives an independent
	// stream from (Seed, label), so runs are replayable.
	Seed uint64
}

// LabelBound returns the effective R.
func (c Config) LabelBound() int {
	if c.R > 0 {
		return c.R
	}
	return c.N - 1
}

// Message is what a receiver observes on a successful reception.
type Message struct {
	// From is the label of the transmitter. The radio model does not
	// deliver sender identity out of band; protocols that need it include
	// it in the payload. From is provided for tracing and for the harness.
	From int
	// Payload is the protocol-defined message content. Broadcasting
	// payloads always implicitly carry the source message: any node that
	// receives any message becomes informed.
	Payload any
}

// SourceCarrier lets a payload declare whether it conveys the source
// message. Payloads that do not implement it are assumed to carry it (true
// for all randomized broadcast payloads). Section 4's Echo replies transmit
// only the responder's label: a not-yet-informed node that hears one does
// not thereby obtain the source message, so the simulator does not mark it
// informed (and, since uninformed nodes may not transmit or act, does not
// deliver such traffic to it at all). Informed receivers get every
// successful reception as usual.
type SourceCarrier interface {
	CarriesSourceMessage() bool
}

// NodeProgram is the state machine run at one node.
//
// The simulator calls Act(t) for informed nodes, at most once per step t
// and in increasing t, and expects (transmit, payload). A program that is
// not a Waker is asked at every step. A Waker is asked at least at every
// step its hint names; a call at any step between those would return
// (false, nil) and change nothing, so skipping it is unobservable (the
// reference oracle, RunReferenceObserved, asks at every step and holds the
// engine to that). The simulator calls Deliver(t, msg) when the node was
// listening at step t and exactly one in-neighbor transmitted. A node that
// transmits in a step cannot receive in it (half-duplex). Programs are
// never called before the node is informed.
type NodeProgram interface {
	Act(t int) (transmit bool, payload any)
	Deliver(t int, msg Message)
}

// Waker is an optional NodeProgram extension for programs that know when
// they will next be on air, such as Section 4's token and slot schedules.
// NextAct(t) returns the earliest step >= t at which Act could transmit or
// change state, given no Deliver or DeliverCollision before it, or
// math.MaxInt when only such a call can change that. It is a pure query:
// it must not change the program's state. The engine asks after every Act,
// Deliver and DeliverCollision and skips Act until the named step; a hint
// may name a step earlier than necessary (that only costs a call), never a
// later one.
type Waker interface {
	NextAct(t int) int
}

// CollisionListener is an optional extension for the collision-detection
// model variant: when the simulator runs with CollisionDetection enabled and
// two or more in-neighbors of a listening informed node transmit, the node
// is told so. The paper's model has no collision detection; this variant
// exists to demonstrate (in tests) that procedure Echo simulates it.
type CollisionListener interface {
	DeliverCollision(t int)
}

// Protocol builds node programs. Name is used in reports.
type Protocol interface {
	Name() string
	NewNode(label int, cfg Config) NodeProgram
}

// DeterministicProtocol marks protocols whose programs are deterministic
// functions of (label, cfg, reception history). Only such protocols can be
// attacked by the Section 3 adversary.
type DeterministicProtocol interface {
	Protocol
	// Deterministic is a marker; implementations simply return true.
	Deterministic() bool
}

// SpontaneousProtocol marks protocols built for the model variant of
// Section 1.1's reference [7], where nodes may transmit before holding the
// source message ("spontaneous transmissions"). The simulator then creates
// every node's program at step 0 and drives all of them; transmissions not
// carrying the source message are delivered to uninformed listeners too
// (they can act on them in this model). Broadcast completion is still
// defined by source-message possession. The paper's own algorithms never
// use this variant; it exists to reproduce the §1.1 landscape, where
// spontaneous transmissions buy O(n) deterministic broadcast while the
// standard model is stuck at Ω(n·log n / log(n/D)) (Theorem 2).
type SpontaneousProtocol interface {
	Protocol
	Spontaneous() bool
}

// NeighborAwareProtocol is the stronger knowledge model of Section 1.1's
// reference [3]: every node knows a priori the labels of its neighbors (but
// still nothing else about the topology). When a protocol implements this
// interface the simulator builds programs through NewNodeWithNeighbors,
// passing the node's out-neighbor labels. The paper's own algorithms never
// use it; the linear-time DFS broadcast that "follows from [2]" does.
//
// NOTE: the Section 3 adversary cannot attack neighbor-aware protocols —
// its layer construction would change the neighborhoods it already
// committed to. Build rejects them.
type NeighborAwareProtocol interface {
	Protocol
	NewNodeWithNeighbors(label int, neighbors []int, cfg Config) NodeProgram
}

// neighborList copies a node's out-row into the list NewNodeWithNeighbors
// receives; the program owns the copy. The engine and the reference oracle
// both build neighbor-aware programs through it.
func neighborList(row []int32) []int {
	neighbors := make([]int, len(row))
	for i, w := range row {
		neighbors[i] = int(w)
	}
	return neighbors
}

// Options control a simulation run.
//
// The struct carries the mirror marker so any future engine-consulted knob
// must either reach the RunReference* oracle too or carry an explicit
// exemption. The oracle deliberately has no Options parameter — it takes
// maxSteps and the fault plan as plain arguments — so today every field is
// exempt, each for its own stated reason.
//
//radiolint:mirror
type Options struct {
	// MaxSteps bounds the run; 0 selects a generous default based on n.
	// Negative values are a validation error.
	//
	//radiolint:mirror-exempt the oracle takes maxSteps as an explicit parameter with the same zero-means-default rule
	MaxSteps int
	// RunToMaxSteps, when true, keeps simulating after every node is
	// informed (some protocols have post-completion behaviour worth
	// tracing). The default stops at completion.
	//
	//radiolint:mirror-exempt post-completion simulation is engine-only tracing; the differential battery stops both sides at completion
	RunToMaxSteps bool
	// CollisionDetection enables the model variant where listeners that
	// implement CollisionListener are told about collisions.
	//
	//radiolint:mirror-exempt the oracle supports the core model only and is never run with collision-detection protocols
	CollisionDetection bool
	// Fault attaches a deterministic fault-injection plan (link loss,
	// topology churn, jammers, crash and sleep-wake schedules — see
	// internal/fault). Nil or inactive plans leave the fault-free hot path
	// untouched, and plans with only crash and sleep run on the same
	// tallies. Every fault model is implemented identically in the naive
	// RunReferenceObserved oracle, so the differential battery gates the
	// faulty paths too.
	//
	//radiolint:mirror-exempt the oracle takes the plan as an explicit parameter; the plan's own members are mirror-checked
	Fault *fault.Plan
	// Trace, if non-nil, receives one event per step. Keep it cheap.
	//
	//radiolint:mirror-exempt tracing is observability, not model semantics; Result fields carry everything the comparison needs
	Trace TraceFunc
}

// TraceFunc observes a completed step. transmitters and receptions alias
// internal buffers and must not be retained.
type TraceFunc func(step int, transmitters []int, receptions []Message)

// Result reports a completed simulation.
type Result struct {
	// Completed is true when every node was informed within MaxSteps.
	Completed bool
	// BroadcastTime is the step at the end of which the last node became
	// informed (the paper's broadcasting time); 0 if n == 1, -1 if the run
	// did not complete.
	BroadcastTime int
	// StepsSimulated is the number of steps actually executed.
	StepsSimulated int
	// InformedAt[v] is the step at which v became informed (0 for the
	// source, -1 if never).
	InformedAt []int
	// Transmissions counts (node, step) transmit events.
	Transmissions int64
	// Receptions counts successful message deliveries.
	Receptions int64
	// Collisions counts (listener, step) events where >= 2 in-neighbors
	// transmitted.
	Collisions int64
}

// ErrStepLimit is wrapped in the error returned by Run when the step budget
// is exhausted before broadcast completes.
var ErrStepLimit = errors.New("radio: step limit reached before broadcast completed")

// ErrUnfitProtocol is wrapped in the error a run returns when the
// protocol's own parameter check rejects the run's configuration: KP, for
// one, needs a label bound of at least 1, so it cannot run on a one-node
// network. A protocol opts in with a Validate(Config) error method; every
// Runner entry point and RunReferenceObserved call it before building any
// node program, so NewNode never sees a configuration Validate rejects.
var ErrUnfitProtocol = errors.New("radio: protocol cannot run with this configuration")

// validator is the optional Protocol extension behind ErrUnfitProtocol.
type validator interface {
	Validate(cfg Config) error
}

// validate applies p's Validate, if it has one, to the run's resolved
// configuration.
func validate(p Protocol, cfg Config) error {
	v, ok := p.(validator)
	if !ok {
		return nil
	}
	if err := v.Validate(cfg); err != nil {
		return fmt.Errorf("%w: %s: %w", ErrUnfitProtocol, p.Name(), err)
	}
	return nil
}

// DefaultMaxSteps is the budget used when Options.MaxSteps is zero: generous
// enough for every algorithm in this repository on every benign topology
// (Θ(n log² n) with a floor), while still catching livelocked protocols.
func DefaultMaxSteps(n int) int {
	if n < 2 {
		return 16
	}
	lg := 1
	for 1<<lg < n {
		lg++
	}
	return 64 * n * lg * lg
}

// Run simulates protocol p on network g until broadcast completes or the
// step budget runs out. Node 0 is the source and is informed at step 0.
//
// Run returns an error (wrapping ErrStepLimit) if the budget is exhausted;
// the partial Result is still returned alongside it.
//
// Run is a thin wrapper that spins up a fresh Runner per call. Trial loops
// that simulate many times on same-sized graphs should hold a Runner (see
// its RunInto) to reuse the engine scratch across runs.
func Run(g *graph.Graph, p Protocol, cfg Config, opt Options) (*Result, error) {
	var r Runner
	return r.Run(g, p, cfg, opt)
}

// RunContext is Run honoring ctx: cancellation is checked between steps, so
// a caller (an HTTP handler, a worker with a request deadline) can abort an
// in-flight simulation. The returned error wraps ctx.Err(); discriminate
// with errors.Is. See Runner.RunIntoContext for the exact semantics.
func RunContext(ctx context.Context, g *graph.Graph, p Protocol, cfg Config, opt Options) (*Result, error) {
	var r Runner
	return r.RunContext(ctx, g, p, cfg, opt)
}
