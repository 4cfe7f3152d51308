// Package core implements the paper's primary contribution: the optimal
// randomized broadcasting algorithm of Section 2.
//
// Procedure Stage(D, i) consists of log(r/D)+1 "Decay ladder" steps — in
// step l a participating node transmits with probability 2^{-l} — followed
// by one extra step in which nodes transmit with the universal-sequence
// probability p_i (package sequences). Procedure Randomized-Broadcasting(D)
// is one source transmission followed by Θ(D) stages (the paper's constant
// is 4660). Algorithm Optimal-Randomized-Broadcasting removes the knowledge
// of D with the doubling technique, running Randomized-Broadcasting(2^i) for
// i = 1, ..., log r; per Corollary 1 the whole schedule repeats forever.
// Expected broadcast time is O(D log(n/D) + log² n).
package core

import (
	"fmt"
	"math"
	"sync"

	"adhocradio/internal/radio"
	"adhocradio/internal/rng"
	"adhocradio/internal/sequences"
)

// PaperStageFactor is the per-phase stage budget constant from Lemma 6 of
// the paper: Randomized-Broadcasting(D) runs 4660·D stages to reach failure
// probability 1/r². Simulations use a smaller default (DefaultStageFactor)
// because the 4660 arises from loose union bounds; the broadcast virtually
// always completes within a small multiple of D stages, and the doubling
// wrapper retries anyway. This substitution is recorded in DESIGN.md.
const PaperStageFactor = 4660

// DefaultStageFactor is the simulation default for stages per phase.
const DefaultStageFactor = 16

// PaperFallbackFactor is the constant of the paper's "if D <= 32·r^{2/3}
// perform Procedure Broadcast from [3]" branch.
const PaperFallbackFactor = 32

// Params configures the algorithm.
type Params struct {
	// StageFactor sets the number of stages in Randomized-Broadcasting(D)
	// to StageFactor·D. Zero selects DefaultStageFactor; use
	// PaperStageFactor for the paper's exact budget.
	StageFactor int
	// FallbackFactor c selects the BGI fallback for phases with
	// D <= c·r^{2/3}. Zero disables the fallback entirely (every phase uses
	// the Stage machinery); use PaperFallbackFactor for the paper's branch.
	// At laptop scales c=32 makes every phase fall back (32·r^{2/3} > r for
	// r < 2^15), i.e. the paper's algorithm degenerates to BGI; experiments
	// that exercise the novel machinery therefore disable the fallback.
	FallbackFactor float64
	// KnownRadius, when positive, runs the single procedure
	// Randomized-Broadcasting(2^⌈log KnownRadius⌉) repeatedly instead of
	// the doubling wrapper.
	KnownRadius int
	// DisableUniversalStep ablates the extra per-stage step (experiment
	// E8), leaving only the truncated Decay ladder.
	DisableUniversalStep bool
}

// Protocol is Algorithm Optimal-Randomized-Broadcasting.
type Protocol struct {
	params Params

	once  sync.Once
	sched *schedule
	err   error
}

var _ radio.Protocol = (*Protocol)(nil)

// New returns the algorithm with the paper's structure and simulation-scale
// constants (StageFactor 16, no fallback). Use NewWithParams for full
// control, including the paper's exact constants.
func New() *Protocol { return NewWithParams(Params{}) }

// NewPaperExact returns the algorithm with the paper's published constants:
// 4660·D stages per phase and the 32·r^{2/3} BGI fallback branch.
func NewPaperExact() *Protocol {
	return NewWithParams(Params{StageFactor: PaperStageFactor, FallbackFactor: PaperFallbackFactor})
}

// NewWithParams returns the algorithm with explicit parameters.
func NewWithParams(p Params) *Protocol {
	if p.StageFactor <= 0 {
		p.StageFactor = DefaultStageFactor
	}
	return &Protocol{params: p}
}

// Name implements radio.Protocol.
func (p *Protocol) Name() string {
	switch {
	case p.params.DisableUniversalStep:
		return "kp-ablated"
	case p.params.KnownRadius > 0:
		return fmt.Sprintf("kp-known-D=%d", p.params.KnownRadius)
	default:
		return "kp-optimal"
	}
}

// Validate builds the transmission schedule for cfg and reports any
// parameter error. The simulator calls it before building any program and
// reports a rejection as radio.ErrUnfitProtocol; NewNode itself cannot
// return an error (the radio.Protocol interface has no error path) and
// panics on configurations Validate would have rejected.
func (p *Protocol) Validate(cfg radio.Config) error {
	p.once.Do(func() {
		p.sched, p.err = buildSchedule(cfg.LabelBound(), p.params)
	})
	return p.err
}

// NewNode implements radio.Protocol. The schedule is built lazily from the
// first configuration seen; a schedule construction failure indicates
// invalid parameters — check with Validate first, or the programmer error
// panics here.
func (p *Protocol) NewNode(label int, cfg radio.Config) radio.NodeProgram {
	if err := p.Validate(cfg); err != nil {
		//radiolint:ignore nopanic radio.Protocol.NewNode has no error path; Validate exposes this error before any node is built
		panic(fmt.Sprintf("core: invalid parameters: %v", err))
	}
	return &node{
		sched:      p.sched,
		source:     label == 0,
		src:        rng.NewStream(cfg.Seed, uint64(label)),
		informedAt: -1,
	}
}

// phase is one execution of Randomized-Broadcasting(d) (or of the BGI
// fallback) inside the doubling schedule.
type phase struct {
	d             int // assumed radius (power of two)
	fallback      bool
	sourceStep    bool // phase begins with "the source transmits"
	stageLen      int
	numStages     int
	ladderMax     int                  // highest ladder exponent: log(r/d), or log r for fallback
	universalStep bool                 // stage ends with the p_i step
	seq           *sequences.Universal // nil when !universalStep
	length        int                  // total steps
}

// schedule lays the phases out on the absolute time axis and repeats the
// whole cycle forever (Corollary 1).
type schedule struct {
	rPow   int // 2^⌈log(R+1)⌉, the paper's power-of-two stand-in for r
	logR   int
	phases []phase
	starts []int // starts[i] = offset of phase i within the cycle
	cycle  int
}

func buildSchedule(labelBound int, p Params) (*schedule, error) {
	if labelBound < 1 {
		return nil, fmt.Errorf("label bound %d < 1", labelBound)
	}
	logR := sequences.CeilLog2(labelBound + 1)
	s := &schedule{rPow: 1 << logR, logR: logR}

	addPhase := func(dPow int) error {
		ph, err := makePhase(s.rPow, logR, dPow, p)
		if err != nil {
			return err
		}
		s.starts = append(s.starts, s.cycle)
		s.phases = append(s.phases, ph)
		s.cycle += ph.length
		return nil
	}

	if p.KnownRadius > 0 {
		dPow := 1 << sequences.CeilLog2(p.KnownRadius)
		if dPow > s.rPow {
			dPow = s.rPow
		}
		if dPow < 2 {
			dPow = 2
		}
		if err := addPhase(dPow); err != nil {
			return nil, err
		}
		return s, nil
	}
	for i := 1; i <= logR; i++ {
		if err := addPhase(1 << i); err != nil {
			return nil, err
		}
	}
	if len(s.phases) == 0 { // logR == 0: two-node network
		if err := addPhase(1); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func makePhase(rPow, logR, dPow int, p Params) (phase, error) {
	threshold := p.FallbackFactor * math.Cbrt(float64(rPow)*float64(rPow))
	if p.FallbackFactor > 0 && float64(dPow) <= threshold {
		// BGI fallback: plain Decay stages, budget Θ(D·log r + log² r).
		ph := phase{
			d:         dPow,
			fallback:  true,
			stageLen:  logR + 1,
			numStages: p.StageFactor * (dPow + logR),
			ladderMax: logR,
		}
		ph.length = ph.stageLen * ph.numStages
		return ph, nil
	}
	logD := sequences.CeilLog2(dPow)
	ladderMax := logR - logD // log(r/D)
	if ladderMax < 0 {
		ladderMax = 0
	}
	ph := phase{
		d:             dPow,
		sourceStep:    true,
		ladderMax:     ladderMax,
		numStages:     p.StageFactor * dPow,
		universalStep: !p.DisableUniversalStep,
	}
	ph.stageLen = ladderMax + 1
	if ph.universalStep {
		ph.stageLen++
		seq, err := sequences.BuildRelaxed(rPow, dPow)
		if err != nil {
			return phase{}, fmt.Errorf("universal sequence for r=%d D=%d: %w", rPow, dPow, err)
		}
		ph.seq = seq
	}
	ph.length = 1 + ph.stageLen*ph.numStages
	return ph, nil
}

// locate maps an absolute step t >= 1 to its phase and 0-based offset.
func (s *schedule) locate(t int) (*phase, int) {
	pos := (t - 1) % s.cycle
	// Few phases (<= log r): linear scan from the end.
	for i := len(s.phases) - 1; i >= 0; i-- {
		if pos >= s.starts[i] {
			return &s.phases[i], pos - s.starts[i]
		}
	}
	return &s.phases[0], pos // unreachable; starts[0] == 0
}

type node struct {
	sched      *schedule
	source     bool
	src        *rng.Source
	informedAt int // step the node was informed; 0 for source, -1 unset
}

// Act implements radio.NodeProgram.
func (n *node) Act(t int) (bool, any) {
	if n.informedAt < 0 {
		if !n.source {
			return false, nil
		}
		n.informedAt = 0
	}
	ph, pos := n.sched.locate(t)
	if ph.sourceStep {
		if pos == 0 {
			// "the source transmits".
			return n.source, payload{}
		}
		pos--
	}
	stageIdx := pos/ph.stageLen + 1
	inStage := pos % ph.stageLen
	// "if node v received source message before Stage(D, i) then v performs
	// Stage(D, i)": the stage begins at absolute step t - inStage.
	if n.informedAt >= t-inStage {
		return false, nil
	}
	if inStage <= ph.ladderMax {
		if n.src.CoinPow2(inStage) {
			return true, payload{}
		}
		return false, nil
	}
	// The extra step: transmit with probability p_i from the universal
	// sequence.
	e := ph.seq.ExponentAt(stageIdx)
	if e >= 0 && n.src.CoinPow2(e) {
		return true, payload{}
	}
	return false, nil
}

// Deliver implements radio.NodeProgram.
func (n *node) Deliver(t int, msg radio.Message) {
	if n.informedAt < 0 {
		n.informedAt = t
	}
}

// payload is the (empty) broadcast message; every transmission implicitly
// carries the source message.
type payload struct{}

// ScheduleView exposes the exact per-step transmission probabilities of a
// protocol configuration, for the analytic oracle in internal/exact.
type ScheduleView struct {
	// ProbAt is the common transmission probability at step t for every
	// participating node.
	ProbAt func(t int) float64
	// SourceOnly marks steps where only the source transmits (the phase's
	// opening "the source transmits" step).
	SourceOnly func(t int) bool
	// StageLen is the stage length; StageEndsAt gives the exact boundary
	// steps (the opening step shifts them off the t%StageLen grid).
	StageLen    int
	StageEndsAt func(t int) bool
}

// KnownRadiusSchedule returns the schedule of the single-phase procedure
// Randomized-Broadcasting(D) (Params{KnownRadius: knownRadius}). The values
// must match node.Act coin for coin; the exact package's oracle tests
// enforce that.
func KnownRadiusSchedule(labelBound, knownRadius int) (*ScheduleView, error) {
	s, err := buildSchedule(labelBound, Params{StageFactor: DefaultStageFactor, KnownRadius: knownRadius})
	if err != nil {
		return nil, err
	}
	ph := &s.phases[0]
	view := &ScheduleView{StageLen: ph.stageLen}
	view.ProbAt = func(t int) float64 {
		pos := (t - 1) % s.cycle
		if ph.sourceStep {
			if pos == 0 {
				return 1 // the source transmits; SourceOnly marks the step
			}
			pos--
		}
		stageIdx := pos/ph.stageLen + 1
		inStage := pos % ph.stageLen
		if inStage <= ph.ladderMax {
			return math.Pow(2, -float64(inStage))
		}
		e := ph.seq.ExponentAt(stageIdx)
		if e < 0 {
			return 0
		}
		return math.Pow(2, -float64(e))
	}
	view.SourceOnly = func(t int) bool {
		return ph.sourceStep && (t-1)%s.cycle == 0
	}
	view.StageEndsAt = func(t int) bool {
		pos := (t - 1) % s.cycle
		if ph.sourceStep {
			if pos == 0 {
				// Nodes informed by the opening transmission participate
				// from stage 1: promote immediately.
				return true
			}
			pos--
		}
		return pos%ph.stageLen == ph.stageLen-1
	}
	return view, nil
}
