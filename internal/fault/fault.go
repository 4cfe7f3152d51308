// Package fault provides deterministic, seed-derived fault injection for
// the radio simulator: the adversarial conditions the paper's model talks
// about (wake-up schedules, jamming adversaries, unstable topology) made
// executable. A Plan composes independent fault models:
//
//   - per-step link loss: each directed arc (u,v) independently drops every
//     transmission crossing it in a given step with probability LinkLoss;
//   - step-windowed topology churn: each undirected link pair {u,v} goes
//     down for whole windows of ChurnWindow steps with probability
//     ChurnProb per window (a coarse-grained outage, distinct from the
//     per-step loss);
//   - adversarial jammers: external noise devices co-located with the
//     Jammers nodes; in every step each device independently transmits
//     noise with probability JamProb, reaching exactly the out-neighbors of
//     its host node. Noise destroys any single legitimate reception there
//     (a collision); noise alone is indistinguishable from silence, as the
//     model requires. The host node itself keeps operating normally — the
//     jammer is an attacker's device, not a node failure.
//   - node crash schedules: a CrashFrac fraction of nodes is deterministically
//     chosen at plan-compile time; each chosen node halts forever at a step
//     drawn uniformly from [1, CrashWindow];
//   - sleep-wake duty cycles: a SleepFrac fraction of nodes runs a periodic
//     duty cycle (awake SleepAwake of every SleepPeriod steps, phase drawn
//     per node); a sleeping node neither transmits nor receives, but its
//     program state persists across naps.
//
// The source (node 0) is exempt from crash and sleep — a dead source makes
// broadcast vacuously impossible — but its links can drop and it can sit in
// a jammer's shadow.
//
// Every decision is a pure function of (Plan.Seed, step, node/arc): node
// schedules are drawn from per-node rng.NewStream substreams at compile
// time, and per-step decisions go through a keyed, order-independent mixing
// function. That order independence is what lets the optimized CSR engine
// and the naive RunReferenceObserved oracle — which visit arcs in different orders
// and different subsets — agree bit for bit on every faulty run, which the
// differential battery and FuzzRunVsReference enforce. It also keeps
// `-parallel N` experiment tables byte-identical: a trial's fault stream
// depends only on the plan seed the trial derived, never on scheduling.
//
// CONTRIBUTING.md rule: a fault model may only ship once it is implemented
// in BOTH simulators and covered by the differential gate.
package fault

import (
	"fmt"

	"adhocradio/internal/rng"
)

// Plan describes a composable set of fault models. The zero value injects
// no faults. Plans are plain data: the same Plan (same Seed) always yields
// the same fault pattern, so runs are replayable.
//
// The mirror marker makes the mirrorref pass hold the optimized engine and
// the RunReference* oracle to the CONTRIBUTING.md rule above: any member
// the engine consults must be consulted by the reference too.
//
//radiolint:mirror
type Plan struct {
	// Seed drives every fault decision. Harnesses derive it from their
	// master seed and trial index (rng.NewStream(seed, trial).Uint64()) so
	// trials stay independent and parallel runs bit-identical.
	Seed uint64

	// LinkLoss is the per-step probability that a given directed arc drops
	// the transmission crossing it (0 disables). Loss is independent per
	// (step, arc); the reverse arc of an undirected edge fails
	// independently too, modelling asymmetric interference.
	LinkLoss float64

	// ChurnProb is the probability that a given undirected link pair is
	// down for a given whole window of ChurnWindow steps (0 disables).
	// Churn takes the pair down in both directions at once.
	ChurnProb   float64
	ChurnWindow int

	// Jammers lists the host nodes of adversarial noise devices; JamProb is
	// the per-step probability that each device transmits noise into its
	// host's out-neighborhood. Jam noise ignores LinkLoss and churn: the
	// attacker's transmitter does not care that the logical link is down.
	Jammers []int
	JamProb float64

	// CrashFrac is the fraction of nodes (excluding the source) that crash;
	// each chosen node halts forever at a step drawn uniformly from
	// [1, CrashWindow]. CrashWindow must be >= 1 when CrashFrac > 0.
	CrashFrac   float64
	CrashWindow int

	// SleepFrac is the fraction of nodes (excluding the source) on a
	// sleep-wake duty cycle: awake for SleepAwake of every SleepPeriod
	// steps, with a per-node phase. Requires 1 <= SleepAwake < SleepPeriod
	// when SleepFrac > 0.
	SleepFrac   float64
	SleepPeriod int
	SleepAwake  int
}

// Active reports whether the plan injects any fault at all. Inactive plans
// are equivalent to a nil plan: the simulator takes its fault-free hot path.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.LinkLoss > 0 ||
		p.ChurnProb > 0 ||
		(len(p.Jammers) > 0 && p.JamProb > 0) ||
		p.CrashFrac > 0 ||
		p.SleepFrac > 0
}

// Validate checks the plan against an n-node network.
func (p *Plan) Validate(n int) error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"LinkLoss", p.LinkLoss},
		{"ChurnProb", p.ChurnProb},
		{"JamProb", p.JamProb},
		{"CrashFrac", p.CrashFrac},
		{"SleepFrac", p.SleepFrac},
	} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("fault: %s = %v outside [0, 1]", pr.name, pr.v)
		}
	}
	if p.ChurnProb > 0 && p.ChurnWindow < 1 {
		return fmt.Errorf("fault: ChurnProb > 0 needs ChurnWindow >= 1 (got %d)", p.ChurnWindow)
	}
	if p.CrashFrac > 0 && p.CrashWindow < 1 {
		return fmt.Errorf("fault: CrashFrac > 0 needs CrashWindow >= 1 (got %d)", p.CrashWindow)
	}
	if p.SleepFrac > 0 && (p.SleepPeriod < 2 || p.SleepAwake < 1 || p.SleepAwake >= p.SleepPeriod) {
		return fmt.Errorf("fault: SleepFrac > 0 needs 1 <= SleepAwake < SleepPeriod (got awake %d of %d)",
			p.SleepAwake, p.SleepPeriod)
	}
	seen := make([]bool, n)
	for _, j := range p.Jammers {
		if j < 0 || j >= n {
			return fmt.Errorf("fault: jammer node %d outside [0, %d)", j, n)
		}
		if seen[j] {
			return fmt.Errorf("fault: duplicate jammer node %d", j)
		}
		seen[j] = true
	}
	return nil
}

// Substream ids for the per-purpose keys, so the models stay independent:
// changing e.g. the jammer list never perturbs the loss pattern.
const (
	keyLinkLoss uint64 = iota + 1
	keyChurn
	keyJam
	keyCrash
	keySleep
)

// State is a plan compiled against a specific network size: the per-node
// crash/sleep schedules plus the per-purpose keys for the step-level
// decisions. A State is reusable across runs via Reset and is safe for
// concurrent readers once reset (all methods are pure reads).
//
//radiolint:mirror
type State struct {
	plan Plan
	n    int

	lossKey, churnKey, jamKey uint64

	crashAt []int32 // 0 = never crashes; otherwise the first dead step
	phase   []int32 // -1 = never sleeps; otherwise the duty-cycle phase
	jammers []int32 // validated copy of the plan's jammer list
	isJam   []bool  // node -> is a jammer host
}

// NewState returns an empty State; call Reset before use.
func NewState() *State { return &State{} }

// Reset compiles plan for an n-node network, reusing the receiver's storage.
// It validates the plan and derives every node schedule from
// rng.NewStream(plan.Seed, ...) substreams.
func (s *State) Reset(plan *Plan, n int) error {
	if err := plan.Validate(n); err != nil {
		return err
	}
	s.plan = *plan
	s.plan.Jammers = nil // the compiled copy lives in s.jammers
	s.n = n

	s.lossKey = rng.NewStream(plan.Seed, keyLinkLoss).Uint64()
	s.churnKey = rng.NewStream(plan.Seed, keyChurn).Uint64()
	s.jamKey = rng.NewStream(plan.Seed, keyJam).Uint64()

	if cap(s.crashAt) < n {
		s.crashAt = make([]int32, n)
		s.phase = make([]int32, n)
		s.isJam = make([]bool, n)
	}
	s.crashAt = s.crashAt[:n]
	s.phase = s.phase[:n]
	s.isJam = s.isJam[:n]

	crashSeed := rng.NewStream(plan.Seed, keyCrash).Uint64()
	sleepSeed := rng.NewStream(plan.Seed, keySleep).Uint64()
	for v := 0; v < n; v++ {
		s.crashAt[v] = 0
		s.phase[v] = -1
		s.isJam[v] = false
		if v == 0 {
			continue // the source neither crashes nor sleeps
		}
		if plan.CrashFrac > 0 {
			src := rng.NewStream(crashSeed, uint64(v))
			if src.Bernoulli(plan.CrashFrac) {
				s.crashAt[v] = int32(1 + src.Intn(plan.CrashWindow))
			}
		}
		if plan.SleepFrac > 0 {
			src := rng.NewStream(sleepSeed, uint64(v))
			if src.Bernoulli(plan.SleepFrac) {
				s.phase[v] = int32(src.Intn(plan.SleepPeriod))
			}
		}
	}

	s.jammers = s.jammers[:0]
	if plan.JamProb > 0 {
		for _, j := range plan.Jammers {
			s.jammers = append(s.jammers, int32(j))
			s.isJam[j] = true
		}
	}
	return nil
}

// N returns the network size the state was compiled for.
func (s *State) N() int { return s.n }

// NodeDown reports whether node v is dead at step t: crashed for good, or
// in the sleeping part of its duty cycle. A down node neither transmits nor
// receives; its program is simply not consulted that step.
//
//radiolint:hotpath
func (s *State) NodeDown(t, v int) bool {
	if at := s.crashAt[v]; at != 0 && int32(t) >= at {
		return true
	}
	if ph := s.phase[v]; ph >= 0 {
		if (t+int(ph))%s.plan.SleepPeriod >= s.plan.SleepAwake {
			return true
		}
	}
	return false
}

// Crashed reports whether node v is permanently dead at step t (sleep-wake
// naps excluded). Harnesses use it to score informed fractions among nodes
// that could still have been reached.
//
//radiolint:hotpath
func (s *State) Crashed(t, v int) bool {
	at := s.crashAt[v]
	return at != 0 && int32(t) >= at
}

// LinkDown reports whether the directed arc u->v is unusable at step t,
// either through per-step loss or because the pair {u,v} is churned out for
// the current window. The decision is a pure function of (seed, t, u, v).
//
//radiolint:hotpath
func (s *State) LinkDown(t, u, v int) bool {
	if p := s.plan.LinkLoss; p > 0 {
		if chance(s.lossKey, uint64(t), uint64(u)<<32|uint64(v)) < p {
			return true
		}
	}
	if p := s.plan.ChurnProb; p > 0 {
		lo, hi := u, v
		if lo > hi {
			lo, hi = hi, lo
		}
		w := t / s.plan.ChurnWindow
		if chance(s.churnKey, uint64(w), uint64(lo)<<32|uint64(hi)) < p {
			return true
		}
	}
	return false
}

// ArcFaults reports whether the state faults arcs at all: link loss,
// churn, or a jammer that can make noise. Crash and sleep act on nodes
// only, so a state without arc faults never makes LinkDown true and never
// jams.
//
//radiolint:mirror-exempt dispatch accelerator for the CSR engine, which runs node-only plans on its clean tallies; the naive oracle probes every arc through LinkDown and JamAt, which carry the semantics
func (s *State) ArcFaults() bool {
	return s.plan.LinkLoss > 0 || s.plan.ChurnProb > 0 || len(s.jammers) > 0
}

// JammerNodes returns the compiled jammer host list (empty when jamming is
// off). The slice is owned by the State; callers must not modify it.
//
//radiolint:mirror-exempt iteration accelerator for the CSR engine; the naive oracle probes every in-neighbor through JamAt, which carries the semantics
func (s *State) JammerNodes() []int32 { return s.jammers }

// JamAt reports whether the device hosted at node u transmits noise in step
// t. It is false for nodes that host no jammer, so naive oracles may probe
// every in-neighbor.
//
//radiolint:hotpath
func (s *State) JamAt(t, u int) bool {
	if !s.isJam[u] {
		return false
	}
	return chance(s.jamKey, uint64(t), uint64(u)) < s.plan.JamProb
}

// mix64 is the SplitMix64 output finalizer (same constants as internal/rng
// uses for seeding): a cheap bijective avalanche over one word.
//
//radiolint:hotpath
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance returns a pseudo-uniform float64 in [0, 1) as a pure function of
// (key, a, b). Unlike a sequential rng.Source, it has no call-order state:
// both simulator implementations get the same draw for the same (step,
// node/arc) identifier no matter when — or whether — the other one asks.
//
//radiolint:hotpath
func chance(key, a, b uint64) float64 {
	z := mix64(key ^ (a+1)*0x9e3779b97f4a7c15)
	z = mix64(z ^ (b+1)*0xd1342543de82ef95)
	return float64(z>>11) / (1 << 53)
}
