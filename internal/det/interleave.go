package det

import (
	"fmt"

	"adhocradio/internal/radio"
)

// Interleaved alternates two broadcasting protocols on odd and even steps,
// the Section 4.2 trick: "Interleaving both algorithms, we get broadcasting
// in time O(n·min(D, log n))". Protocol A owns odd steps (its virtual step
// s runs at global step 2s-1), protocol B owns even steps (virtual step s
// at global step 2s). Each sub-program sees only its own virtual clock, so
// any step-addressed scheduling inside the sub-protocols keeps working.
//
// A node's first reception is forwarded to both sub-programs (the source
// message is shared knowledge); every later reception goes only to the
// owner of its step parity. Sub-programs must ignore payloads they do not
// recognize, which all protocols in this repository do.
type Interleaved struct {
	A, B radio.Protocol
}

var (
	_ radio.Protocol = Interleaved{}
	_ radio.Waker    = (*ilNode)(nil)
)

// NewInterleaved combines two protocols; the canonical instance is
// NewInterleaved(RoundRobin{}, SelectAndSend{}).
func NewInterleaved(a, b radio.Protocol) Interleaved {
	return Interleaved{A: a, B: b}
}

// Name implements radio.Protocol.
func (p Interleaved) Name() string {
	return fmt.Sprintf("interleave(%s,%s)", p.A.Name(), p.B.Name())
}

// Deterministic implements radio.DeterministicProtocol when both halves are
// deterministic.
func (p Interleaved) Deterministic() bool {
	da, okA := p.A.(radio.DeterministicProtocol)
	db, okB := p.B.(radio.DeterministicProtocol)
	return okA && okB && da.Deterministic() && db.Deterministic()
}

// NewNode implements radio.Protocol.
func (p Interleaved) NewNode(label int, cfg radio.Config) radio.NodeProgram {
	n := &ilNode{
		a: p.A.NewNode(label, cfg),
		b: p.B.NewNode(label, cfg),
	}
	n.wa, _ = n.a.(radio.Waker)
	n.wb, _ = n.b.(radio.Waker)
	return n
}

type ilNode struct {
	a, b      radio.NodeProgram
	wa, wb    radio.Waker // the halves' hints; nil for a half without them
	delivered bool
}

// NextAct implements radio.Waker by mapping each half's hint through its
// virtual clock: A's step s runs at global step 2s-1 and B's at 2s. A half
// that gives no hints is asked at every step of its own parity.
func (n *ilNode) NextAct(t int) int {
	sa, sb := (t+2)/2, (t+1)/2 // each half's first virtual step at or after t
	if n.wa != nil {
		sa = n.wa.NextAct(sa)
	}
	if n.wb != nil {
		sb = n.wb.NextAct(sb)
	}
	next := never
	if sa != never {
		next = 2*sa - 1
	}
	if sb != never {
		next = min(next, 2*sb)
	}
	return next
}

// Act implements radio.NodeProgram.
func (n *ilNode) Act(t int) (bool, any) {
	if t%2 == 1 {
		return n.a.Act((t + 1) / 2)
	}
	return n.b.Act(t / 2)
}

// Deliver implements radio.NodeProgram.
func (n *ilNode) Deliver(t int, msg radio.Message) {
	if t%2 == 1 {
		n.a.Deliver((t+1)/2, msg)
		if !n.delivered {
			// First contact: the other half is informed too. Its virtual
			// clock has completed t/2 steps; deliver there so it starts
			// participating (payload will be foreign and ignored beyond
			// the informing effect). Virtual step 0 is impossible, so
			// clamp to 1 for a reception on global step 1.
			vb := t / 2
			if vb < 1 {
				vb = 1
			}
			n.b.Deliver(vb, msg)
		}
	} else {
		n.b.Deliver(t/2, msg)
		if !n.delivered {
			n.a.Deliver(t/2, msg)
		}
	}
	n.delivered = true
}
