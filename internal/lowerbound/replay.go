package lowerbound

import (
	"adhocradio/internal/bitset"
	"adhocradio/internal/radio"
)

// replay is the label-indexed state both adversaries simulate their victim
// with: one slot per label 0..n. Every step walks the slots that hold a
// program in ascending label order, so a construction replays identically
// without sorting anything.
type replay struct {
	proto radio.Protocol
	cfg   radio.Config
	slots []slot
	live  *bitset.Set // labels whose slot holds a program
	// sent lists this step's transmitters in ascending label order, so the
	// next step clears exactly their flags.
	sent []int
}

// slot is one label's replay state. prog is nil while the label's abstract
// history is empty. As in the engine, a program that is a radio.Waker is
// not asked to act before its wake step, and the step is asked again after
// every Act and Deliver; every other program keeps wake step 0.
type slot struct {
	prog    radio.NodeProgram
	waker   radio.Waker
	wake    int
	sending bool
	payload any
}

func newReplay(p radio.Protocol, cfg radio.Config, n int) *replay {
	return &replay{proto: p, cfg: cfg, slots: make([]slot, n+1), live: bitset.New(n + 1)}
}

// start gives label v a fresh program with an empty history, due at once.
func (r *replay) start(v int) {
	prog := r.proto.NewNode(v, r.cfg)
	w, _ := prog.(radio.Waker)
	r.slots[v] = slot{prog: prog, waker: w}
	r.live.Add(v)
}

// drop resets label v's history to empty.
func (r *replay) drop(v int) {
	r.slots[v] = slot{}
	r.live.Remove(v)
}

// act plays the action phase of step t: every program due at t is asked
// whether it transmits.
func (r *replay) act(t int) {
	for _, v := range r.sent {
		r.slots[v].sending, r.slots[v].payload = false, nil
	}
	r.sent = r.sent[:0]
	r.live.ForEach(func(v int) bool {
		s := &r.slots[v]
		if s.wake > t {
			return true
		}
		tx, payload := s.prog.Act(t)
		s.rehint(t + 1)
		if tx {
			s.sending, s.payload = true, payload
			r.sent = append(r.sent, v)
		}
		return true
	})
}

// sending reports whether label v transmits in the current step.
func (r *replay) sending(v int) bool { return r.slots[v].sending }

// deliver hands v's program the current step's message from transmitter
// from.
func (r *replay) deliver(v, t, from int) {
	s := &r.slots[v]
	s.prog.Deliver(t, radio.Message{From: from, Payload: r.slots[from].payload})
	s.rehint(t + 1)
}

// rehint refreshes the wake step from the program's hint for steps >= t.
func (s *slot) rehint(t int) {
	if s.waker != nil {
		s.wake = s.waker.NextAct(t)
	}
}
