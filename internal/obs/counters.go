// Package obs is the simulator's observability layer: plain counter
// structs, a log-scale duration histogram, and a concurrency-safe recorder
// that aggregates both across trial workers.
//
// The paper's claims are claims about counts — broadcast rounds,
// transmissions, collisions — so the counters are first-class engine state,
// not a post-hoc trace product. Two design rules keep the layer
// zero-overhead and trustworthy:
//
//  1. No interfaces, no closures, no allocations. Counters is a plain
//     struct of int64 fields embedded by value in radio.Runner and
//     incremented inline in the hot loop, so the //radiolint:hotpath
//     hotalloc pass stays clean and BenchmarkSimulatorRunnerReuse stays at
//     0 allocs/op.
//
//  2. Every counter the optimized engine maintains is maintained
//     independently by the naive RunReferenceObserved oracle — the same
//     mirror-in-reference rule fault models follow (CONTRIBUTING.md). The
//     differential battery and FuzzRunVsReference assert engine/reference
//     counter equality exactly like Result equality, and the mirrorref
//     lint pass enforces the rule statically through the
//     //radiolint:mirror marker below.
//
// Counter totals are deterministic: each trial's counters are a pure
// function of (graph, protocol, seed, plan), and aggregation is integer
// addition, which is schedule-independent. Timing histograms are
// observational and never participate in determinism checks.
package obs

// Counters records what happened during one or more simulation runs. All
// fields are event counts; the zero value is an empty record. Counters is
// comparable with ==, which is how the differential tests assert
// engine/reference agreement in one shot.
//
// The fault-event counters follow the engine's accounting points exactly
// (and the reference mirrors them):
//
//   - LinksDropped counts transmissions destroyed by a link fault: one per
//     (step, arc) where an arc out of a transmitter was down, whether or
//     not the receiver could have heard it.
//   - JamNoise counts (step, jammer) noise transmissions — the attacker's
//     activity, not its victims (a noise burst over silence still counts).
//   - CrashSkips and SleepSkips count transmit opportunities lost to a down
//     node: steps in which a node holding a program was not consulted
//     because it had crashed (respectively: was asleep). A node that is
//     both crashed and in its sleep window counts as crashed. Receive-side
//     deafness is not re-counted — the two simulators probe receivers over
//     different node subsets, so only the transmit side has a
//     schedule-independent event set.
//
//radiolint:mirror
type Counters struct {
	// Steps is the number of simulation steps executed.
	Steps int64 `json:"steps"`
	// Transmissions counts (node, step) transmit events.
	Transmissions int64 `json:"transmissions"`
	// Receptions counts successful single-transmitter deliveries.
	Receptions int64 `json:"receptions"`
	// Collisions counts (listener, step) events where two or more
	// in-transmitters (or one plus jam noise) clashed.
	Collisions int64 `json:"collisions"`
	// SilentSteps counts steps in which no node transmitted.
	SilentSteps int64 `json:"silent_steps"`
	// LinksDropped counts transmissions destroyed by link loss or churn.
	LinksDropped int64 `json:"links_dropped,omitempty"`
	// JamNoise counts per-step noise transmissions by jammer devices.
	JamNoise int64 `json:"jam_noise,omitempty"`
	// CrashSkips counts transmit opportunities lost to crashed nodes.
	CrashSkips int64 `json:"crash_skips,omitempty"`
	// SleepSkips counts transmit opportunities lost to sleeping nodes.
	SleepSkips int64 `json:"sleep_skips,omitempty"`
}

// Add accumulates d into c.
func (c *Counters) Add(d Counters) {
	c.Steps += d.Steps
	c.Transmissions += d.Transmissions
	c.Receptions += d.Receptions
	c.Collisions += d.Collisions
	c.SilentSteps += d.SilentSteps
	c.LinksDropped += d.LinksDropped
	c.JamNoise += d.JamNoise
	c.CrashSkips += d.CrashSkips
	c.SleepSkips += d.SleepSkips
}

// Diff returns c - prev fieldwise: the events recorded since prev was
// snapshotted from the same accumulating source.
func (c Counters) Diff(prev Counters) Counters {
	return Counters{
		Steps:         c.Steps - prev.Steps,
		Transmissions: c.Transmissions - prev.Transmissions,
		Receptions:    c.Receptions - prev.Receptions,
		Collisions:    c.Collisions - prev.Collisions,
		SilentSteps:   c.SilentSteps - prev.SilentSteps,
		LinksDropped:  c.LinksDropped - prev.LinksDropped,
		JamNoise:      c.JamNoise - prev.JamNoise,
		CrashSkips:    c.CrashSkips - prev.CrashSkips,
		SleepSkips:    c.SleepSkips - prev.SleepSkips,
	}
}

// IsZero reports whether no event was recorded.
func (c Counters) IsZero() bool { return c == Counters{} }

// FaultEvents returns the total number of fault-injected events: the
// quick answer to "did faults actually fire in this run".
func (c Counters) FaultEvents() int64 {
	return c.LinksDropped + c.JamNoise + c.CrashSkips + c.SleepSkips
}
