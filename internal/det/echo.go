// Package det implements the paper's deterministic broadcasting algorithms
// (Section 4): the collision-detection simulation Echo and Algorithm
// Binary-Selection (4.1), Algorithm Select-and-Send (4.2), the round-robin
// baseline and the O(n·min(D, log n)) interleaving (4.2), and Algorithm
// Complete-Layered (4.3).
//
// All algorithms are genuinely distributed: a coordinator (the token holder
// or the current layer leader) embeds absolute step-addressed commands in
// its transmissions, and listeners obey only commands they actually
// received, exactly like the paper's "orders its neighbor with label i to
// transmit in step 2i". At any step, the only transmitters are the single
// active coordinator or the responders its latest command scheduled, so
// command steps are always collision-free.
package det

import (
	"math"

	"adhocradio/internal/radio"
)

// membershipMode says which listeners count as the echo set S.
type membershipMode int

const (
	// modeUnvisited selects listeners never visited by the DFS token
	// (Select-and-Send: S = neighbors of v outside V).
	modeUnvisited membershipMode = iota + 1
	// modeWokenAt selects listeners first informed exactly at WakeStep
	// (Complete-Layered: S = neighbors which obtained the source message in
	// the previous step).
	modeWokenAt
)

// echoCmd is a coordinator's order to run procedure Echo(w, A) where
// A = {listeners matching Mode with label in [Lo, Hi]}:
//
//	Step1: every node in A transmits its label.
//	Step2: every node in A, and also node W, transmits its label.
//
// The command itself carries the source message (it wakes listeners).
type echoCmd struct {
	Coordinator int
	W           int // distinguished responder of step 2; -1 for none
	Lo, Hi      int
	Step1       int
	Step2       int
	Mode        membershipMode
	WakeStep    int // for modeWokenAt: the step of the waking transmission
}

// initCmd is the source's step-1 order of Select-and-Send part 1 and of
// Complete-Layered phase 1: "neighbor with label i transmits in step 2i".
type initCmd struct{}

// tokenCmd transfers coordination to node To. For Select-and-Send it is the
// DFS token; for Complete-Layered it appoints the next layer leader.
// StopInit cancels a pending initCmd schedule ("ordering to stop this
// procedure"). It carries the source message.
type tokenCmd struct {
	From     int
	To       int
	StopInit bool
	// Layer tells the appointee its layer number (Complete-Layered).
	Layer int
}

// stopCmd ends Algorithm Complete-Layered ("ordering all of its neighbors
// to stop").
type stopCmd struct{}

// echoReply is a responder's transmission during an echo step: just its
// label, NOT the source message.
type echoReply struct{ Label int }

// CarriesSourceMessage implements radio.SourceCarrier: echo replies carry
// only a label, so they cannot inform a node.
func (echoReply) CarriesSourceMessage() bool { return false }

var _ radio.SourceCarrier = echoReply{}

// echoOutcome classifies the three possible effects of Procedure Echo at
// the initiating node (Section 4.1).
type echoOutcome int

const (
	echoOne   echoOutcome = iota + 1 // |A| == 1, label known
	echoEmpty                        // |A| == 0
	echoMany                         // |A| >= 2
)

// coordinator drives one "visit": the first full echo over S, then — when
// |S| > 1 — the doubling echoes Echo(w, S ∩ [1, 2^k]) and Algorithm
// Binary-Selection, ending with a selected node (or the discovery that S is
// empty). It is a passive state machine advanced by the owning node
// program: act(t) yields the coordinator's transmission for step t, and
// deliver records what the coordinator heard.
type coordinator struct {
	self     int
	r        int // label bound
	w        int // distinguished echo responder (parent / previous leader)
	mode     membershipMode
	wakeStep int

	// Script position: the current operation transmitted its command at
	// step cmdStep, listens at cmdStep+1 and cmdStep+2, and decides at
	// cmdStep+3.
	cmdStep int
	op      coordOp
	k       int // doubling exponent
	lo, hi  int // Binary-Selection range

	heard1 int // label heard at Step1, -1 if none
	heard2 bool

	// Outcome: exactly one of the following is set when done.
	done     bool
	selected int // label of the selected node, -1 when S was empty
	sEmpty   bool
}

type coordOp int

const (
	opFirstEcho coordOp = iota + 1 // Echo(w, S)
	opDoubling                     // Echo(w, S ∩ [1..2^k])
	opBinSel                       // Binary-Selection segment on [lo..hi]
)

// newCoordinator prepares a visit whose first command goes out at step
// start. For Complete-Layered the first command is also the wake
// transmission, so wakeStep = start.
func newCoordinator(self, r, w int, mode membershipMode, start int) *coordinator {
	return &coordinator{
		self:     self,
		r:        r,
		w:        w,
		mode:     mode,
		wakeStep: start,
		cmdStep:  start,
		op:       opFirstEcho,
		heard1:   -1,
		selected: -1,
	}
}

// act returns the coordinator's transmission at step t, if any, advancing
// the script. The owning program must call it every step while the visit is
// live, with strictly increasing t.
func (c *coordinator) act(t int) (bool, any) {
	if c.done {
		return false, nil
	}
	switch t {
	case c.cmdStep:
		return true, c.command()
	case c.cmdStep + 1, c.cmdStep + 2:
		return false, nil // listening to the echo
	case c.cmdStep + 3:
		// Decide on the finished echo; unless the visit is over, the next
		// command goes out in this very step (no responder is scheduled
		// here, so it is collision-free).
		c.decide()
		if c.done {
			return false, nil // the owner transmits the token in this step
		}
		c.cmdStep = t
		return true, c.command()
	default:
		return false, nil
	}
}

// nextAct bounds the coordinator's next action from below: it transmits
// only at cmdStep and decides only at cmdStep+3.
func (c *coordinator) nextAct(t, next int) int {
	return earliest(earliest(next, t, c.cmdStep), t, c.cmdStep+3)
}

// command builds the echoCmd of the current operation.
func (c *coordinator) command() echoCmd {
	cmd := echoCmd{
		Coordinator: c.self,
		W:           c.w,
		Step1:       c.cmdStep + 1,
		Step2:       c.cmdStep + 2,
		Mode:        c.mode,
		WakeStep:    c.wakeStep,
	}
	switch c.op {
	case opFirstEcho:
		cmd.Lo, cmd.Hi = 1, c.r
	case opDoubling:
		cmd.Lo, cmd.Hi = 1, 1<<c.k
	case opBinSel:
		cmd.Lo, cmd.Hi = c.lo, c.hi
	}
	return cmd
}

// deliver records a message heard during the echo steps.
func (c *coordinator) deliver(t int, msg radio.Message) {
	reply, ok := msg.Payload.(echoReply)
	if !ok {
		return
	}
	switch t {
	case c.cmdStep + 1:
		c.heard1 = reply.Label
	case c.cmdStep + 2:
		c.heard2 = true
	}
}

// outcome classifies the last echo per Section 4.1.
func (c *coordinator) outcome() echoOutcome {
	switch {
	case c.heard1 >= 0:
		return echoOne
	case c.heard2:
		return echoEmpty
	default:
		return echoMany
	}
}

// decide advances the script after an echo completes.
func (c *coordinator) decide() {
	out := c.outcome()
	label := c.heard1
	c.heard1, c.heard2 = -1, false

	switch c.op {
	case opFirstEcho:
		switch out {
		case echoOne:
			c.finish(label)
		case echoEmpty:
			c.done, c.sEmpty = true, true
		case echoMany:
			c.k = 1
			c.op = opDoubling
		}
	case opDoubling:
		switch out {
		case echoOne:
			c.finish(label)
		case echoEmpty:
			// S ∩ [1..2^k] empty: double the range.
			c.k++
			if 1<<c.k > 2*c.r { // cannot happen for a correct run; stop growing
				c.k--
			}
		case echoMany:
			// |S ∩ [1..2^k]| >= 2: Binary-Selection on [1..2^k], first
			// range the lower half.
			m := 1 << c.k
			c.op = opBinSel
			c.lo, c.hi = 1, m/2
			if c.hi < 1 {
				c.hi = 1
			}
		}
	case opBinSel:
		s := c.hi - c.lo + 1
		switch out {
		case echoOne:
			c.finish(label)
		case echoEmpty:
			// R := {y+1, ..., y+(y-x+1)/2}.
			half := s / 2
			if half < 1 {
				half = 1 // defensive: the invariant rules this out at s==1
			}
			c.lo, c.hi = c.hi+1, c.hi+half
		case echoMany:
			// R := {x, ..., (y+x-1)/2}.
			c.hi = c.lo + s/2 - 1
			if c.hi < c.lo {
				c.hi = c.lo
			}
		}
	}
}

func (c *coordinator) finish(label int) {
	c.done = true
	c.selected = label
}

// responder tracks the latest echo command a listener received and answers
// it. membership is supplied by the owning program (visited flag or wake
// step match).
type responder struct {
	label int
	cmd   *echoCmd
}

// hear records a command addressed to this listener's neighborhood.
func (r *responder) hear(cmd echoCmd) {
	c := cmd
	r.cmd = &c
}

// nextAct bounds the responder's next transmission from below: it answers
// its latest command at Step1 and Step2 only.
func (r *responder) nextAct(t, next int) int {
	if r.cmd == nil {
		return next
	}
	return earliest(earliest(next, t, r.cmd.Step1), t, r.cmd.Step2)
}

// earliest folds a scheduled step s into a wake hint: it returns s when s
// lies at or after t and before next, and next otherwise. Unscheduled steps
// are -1 and never count.
func earliest(next, t, s int) int {
	if s >= t && s < next {
		return s
	}
	return next
}

// never is the wake hint of a program only a reception can wake.
const never = math.MaxInt

// act returns the responder's transmission at step t. inSet reports whether
// this node currently satisfies the command's membership mode.
func (r *responder) act(t int, inSet func(cmd *echoCmd) bool) (bool, any) {
	if r.cmd == nil {
		return false, nil
	}
	cmd := r.cmd
	switch t {
	case cmd.Step1:
		if r.label >= cmd.Lo && r.label <= cmd.Hi && inSet(cmd) {
			return true, echoReply{Label: r.label}
		}
	case cmd.Step2:
		if r.label == cmd.W {
			return true, echoReply{Label: r.label}
		}
		if r.label >= cmd.Lo && r.label <= cmd.Hi && inSet(cmd) {
			return true, echoReply{Label: r.label}
		}
	}
	return false, nil
}
