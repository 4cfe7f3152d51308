package radio

import (
	"errors"
	"fmt"

	"adhocradio/internal/fault"
	"adhocradio/internal/obs"
)

// ReferenceGraph is the minimal topology view the naive oracle needs.
type ReferenceGraph interface {
	N() int
	Out(v int) []int32
	In(v int) []int32
}

// RunReferenceObserved is a deliberately naive implementation of the same
// model as Run: per step it scans every node and every arc, with no
// incremental bookkeeping. It exists purely as a differential-testing
// oracle — the optimized simulator is checked against it on randomized
// workloads — and for readers who want the model semantics in one place.
// It supports the core model only (no collision-detection variant). The
// protocol must be replayable (same cfg.Seed ⇒ same behaviour) for the
// comparison to be meaningful.
//
// plan may be nil. Every fault model of internal/fault is implemented here,
// independently of the optimized engine, from the same order-free decision
// functions — that is what lets the differential battery and the fuzz
// targets gate the faulty paths: both simulators must agree bit for bit on
// every Result field. Semantics, spelled out once (the engine mirrors
// them):
//   - a down node (crashed or asleep) is not asked to Act and hears
//     nothing — no reception, no collision is accounted to it;
//   - an arc whose LinkDown decision fires carries no transmission;
//   - jam noise from a device hosted at u reaches every out-neighbor of u,
//     ignoring link faults; a jammed listener with exactly one surviving
//     legitimate hit suffers a collision instead of a reception, while jam
//     noise over silence is just more silence.
//
// It also returns the engine counters of the run, counted independently of
// the optimized engine: plain increments over this function's own naive
// scans, never derived from a Result or from radio.Runner. This is the
// reference side of the counter mirror rule (CONTRIBUTING.md): every
// obs.Counters field the engine maintains must be maintained here too, at
// the semantically identical accounting point, so the differential battery
// and the fuzz targets gate counter semantics exactly like result
// semantics. On a step-limit error the counters cover the executed steps.
func RunReferenceObserved(g ReferenceGraph, p Protocol, cfg Config, maxSteps int, plan *fault.Plan) (*Result, obs.Counters, error) {
	var c obs.Counters
	n := g.N()
	if n == 0 {
		return nil, c, errors.New("radio: empty graph")
	}
	if cfg.N == 0 {
		cfg.N = n
	}
	if cfg.N != n {
		return nil, c, fmt.Errorf("radio: cfg.N=%d does not match graph n=%d", cfg.N, n)
	}
	if maxSteps < 0 {
		return nil, c, fmt.Errorf("radio: negative MaxSteps %d", maxSteps)
	}
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps(n)
	}
	var st *fault.State
	if plan != nil {
		if err := plan.Validate(n); err != nil {
			return nil, c, err
		}
		if plan.Active() {
			st = fault.NewState()
			if err := st.Reset(plan, n); err != nil {
				return nil, c, err
			}
		}
	}

	newProgram := func(v int) NodeProgram {
		if na, ok := p.(NeighborAwareProtocol); ok {
			return na.NewNodeWithNeighbors(v, neighborList(g.Out(v)), cfg)
		}
		return p.NewNode(v, cfg)
	}

	spontaneous := false
	if sp, ok := p.(SpontaneousProtocol); ok && sp.Spontaneous() {
		spontaneous = true
	}
	res := &Result{BroadcastTime: -1, InformedAt: make([]int, n)}
	for v := range res.InformedAt {
		res.InformedAt[v] = -1
	}
	res.InformedAt[0] = 0
	programs := make([]NodeProgram, n)
	programs[0] = newProgram(0)
	if spontaneous {
		for v := 1; v < n; v++ {
			programs[v] = newProgram(v)
		}
	}

	informed := func() int {
		c := 0
		for _, at := range res.InformedAt {
			if at >= 0 {
				c++
			}
		}
		return c
	}

	for t := 1; informed() < n; t++ {
		if t > maxSteps {
			res.StepsSimulated = t - 1
			return res, c, fmt.Errorf("radio: %w after %d steps (reference)", ErrStepLimit, maxSteps)
		}
		res.StepsSimulated = t
		c.Steps++

		// Who transmits. Nodes the fault plan has down are not consulted; a
		// down node with a program is a lost transmit opportunity, counted
		// as a crash or sleep skip (crash wins when both hold, matching the
		// engine).
		tx := make(map[int]any, 4)
		for v := 0; v < n; v++ {
			if programs[v] == nil {
				continue
			}
			if st != nil && st.NodeDown(t, v) {
				if st.Crashed(t, v) {
					c.CrashSkips++
				} else {
					c.SleepSkips++
				}
				continue
			}
			if ok, payload := programs[v].Act(t); ok {
				tx[v] = payload
			}
		}
		res.Transmissions += int64(len(tx))
		c.Transmissions += int64(len(tx))
		if len(tx) == 0 {
			c.SilentSteps++
		}

		// Fault-event accounting, mirroring the engine's points exactly:
		// every arc out of a transmitter that a link fault destroys, and
		// every (step, jammer) noise transmission — JamAt is false for
		// nodes hosting no jammer, so scanning all n keeps this naive.
		if st != nil {
			for u := 0; u < n; u++ {
				if _, ok := tx[u]; ok {
					for _, v := range g.Out(u) {
						if st.LinkDown(t, u, int(v)) {
							c.LinksDropped++
						}
					}
				}
				if st.JamAt(t, u) {
					c.JamNoise++
				}
			}
		}

		// Who receives what: scan every node's in-neighbors.
		for v := 0; v < n; v++ {
			if _, transmitting := tx[v]; transmitting {
				continue
			}
			if st != nil && st.NodeDown(t, v) {
				continue // a down node hears nothing
			}
			from, count := -1, 0
			jammed := false
			for _, w := range g.In(v) {
				u := int(w)
				if _, ok := tx[u]; ok && (st == nil || !st.LinkDown(t, u, v)) {
					from = u
					count++
				}
				if st != nil && st.JamAt(t, u) {
					jammed = true
				}
			}
			switch {
			case count == 1 && !jammed:
				payload := tx[from]
				if res.InformedAt[v] == -1 {
					carrier := true
					if c, ok := payload.(SourceCarrier); ok && !c.CarriesSourceMessage() {
						carrier = false
					}
					switch {
					case carrier:
						res.InformedAt[v] = t
						if !spontaneous {
							programs[v] = newProgram(v)
						}
					case !spontaneous:
						continue
					}
				}
				programs[v].Deliver(t, Message{From: from, Payload: payload})
				res.Receptions++
				c.Receptions++
			case count >= 2 || (count == 1 && jammed):
				res.Collisions++
				c.Collisions++
			}
		}
		if informed() == n {
			res.BroadcastTime = t
		}
	}
	res.Completed = true
	if n == 1 {
		res.BroadcastTime = 0
	}
	return res, c, nil
}
