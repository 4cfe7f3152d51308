package radio

import (
	"errors"
	"testing"

	"adhocradio/internal/fault"
	"adhocradio/internal/graph"
	"adhocradio/internal/rng"
)

// labelOnly is a payload that does not carry the source message (the shape
// of Section 4's Echo replies): hearing one must not inform a node.
type labelOnly struct{ from int }

func (labelOnly) CarriesSourceMessage() bool { return false }

// mixed is a deterministic protocol that interleaves carrier and label-only
// transmissions on a label-dependent schedule, exercising every delivery
// rule: collisions, half-duplex, and the SourceCarrier gate.
type mixed struct{}

func (mixed) Name() string { return "mixed" }
func (mixed) NewNode(label int, cfg Config) NodeProgram {
	return &mixedNode{label: label}
}

type mixedNode struct{ label int }

func (n *mixedNode) Act(t int) (bool, any) {
	switch (t + n.label) % 4 {
	case 0:
		return true, nil // carrier (nil payloads always carry the source message)
	case 1:
		return true, labelOnly{from: n.label}
	default:
		return false, nil
	}
}
func (n *mixedNode) Deliver(t int, msg Message) {}

// fuzzGraph deterministically derives a small broadcastable topology from
// the fuzz input.
func fuzzGraph(gseed uint64, kind uint8, n int) *graph.Graph {
	src := rng.New(gseed)
	switch kind % 5 {
	case 0:
		return graph.GNPConnected(n, 3.0/float64(n), src)
	case 1:
		return graph.RandomTree(n, src)
	case 2:
		g, err := graph.RandomLayered(n, 2+int(gseed%5), 0.3, src)
		if err != nil {
			return graph.Path(n)
		}
		return g
	case 3:
		g, err := graph.DirectedLayered(n, 2+int(gseed%5), 0.3, src)
		if err != nil {
			return graph.Path(n)
		}
		return g
	default:
		return graph.GNPConnected(n, 0.2, src)
	}
}

// fuzzPlan derives a fault plan from three fuzz bytes. All-zero bytes mean
// no plan at all (the fault-free hot path); otherwise lossB packs link loss
// and churn, crashB packs crash and sleep fractions, jamB packs the jam
// probability and a jammer host.
func fuzzPlan(pseed uint64, n int, lossB, crashB, jamB uint8) *fault.Plan {
	if lossB == 0 && crashB == 0 && jamB == 0 {
		return nil
	}
	plan := &fault.Plan{
		Seed:      pseed ^ 0x9e3779b97f4a7c15,
		LinkLoss:  float64(lossB&0x3f) / 100, // [0, 0.63]
		ChurnProb: float64(lossB>>6) / 4,     // {0, 0.25, 0.5, 0.75}
		CrashFrac: float64(crashB&0x0f) / 32, // [0, ~0.47]
		SleepFrac: float64(crashB>>4) / 20,   // [0, 0.75]
		JamProb:   float64(jamB&0x0f) / 16,   // [0, ~0.94]
	}
	if plan.ChurnProb > 0 {
		plan.ChurnWindow = 16
	}
	if plan.CrashFrac > 0 {
		plan.CrashWindow = 1 + n
	}
	if plan.SleepFrac > 0 {
		plan.SleepPeriod, plan.SleepAwake = 8, 5
	}
	if plan.JamProb > 0 {
		plan.Jammers = []int{int(jamB>>4) % n}
	}
	return plan
}

// FuzzRunVsReference is the differential fuzzer the hot loop is gated on:
// for random connected graphs, seeds, protocols (randomized coin,
// deterministic flood, SourceCarrier-mixing mixed, nil-payload nilFlood),
// and fault plans derived from three extra bytes, the optimized CSR engine
// and the naive oracle must agree on every observable Result field AND on
// every obs.Counters field — including runs that hit the step budget.
func FuzzRunVsReference(f *testing.F) {
	f.Add(uint64(1), uint64(7), uint8(0), uint8(20), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint64(9), uint8(1), uint8(40), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(3), uint64(11), uint8(2), uint8(33), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(4), uint64(13), uint8(3), uint8(48), uint8(0), uint8(12), uint8(0), uint8(0))
	f.Add(uint64(5), uint64(15), uint8(4), uint8(64), uint8(2), uint8(0x80), uint8(0), uint8(0))
	f.Add(uint64(6), uint64(17), uint8(0), uint8(2), uint8(1), uint8(0), uint8(0x35), uint8(0))
	f.Add(uint64(7), uint64(19), uint8(1), uint8(25), uint8(2), uint8(0), uint8(0), uint8(0x78))
	f.Add(uint64(8), uint64(21), uint8(4), uint8(50), uint8(0), uint8(0x4a), uint8(0x23), uint8(0xe7))
	// Dispatch-crossover seeds (mirrored as named files in
	// testdata/fuzz/FuzzRunVsReference/): dense GNP under nilFlood at the
	// bitplane word boundaries n=64 (one word) and n=65 (one spare bit) and
	// at the size cap n=80 drive the bit-parallel kernel; the sparse control
	// fails the BitmapDense gate; mixed puts carrier and label-only payloads
	// through the kernel in one step; the fault-plan variant must bypass the
	// kernel via tallyFaulty.
	f.Add(uint64(9), uint64(23), uint8(4), uint8(62), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(10), uint64(25), uint8(4), uint8(63), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(11), uint64(27), uint8(4), uint8(78), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(12), uint64(29), uint8(0), uint8(62), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(13), uint64(31), uint8(4), uint8(62), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(14), uint64(33), uint8(4), uint8(78), uint8(3), uint8(0x22), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, gseed, pseed uint64, kind, size, proto, lossB, crashB, jamB uint8) {
		n := 2 + int(size)%79 // [2, 80]
		g := fuzzGraph(gseed, kind, n)
		plan := fuzzPlan(pseed, n, lossB, crashB, jamB)
		var p Protocol
		switch proto % 4 {
		case 0:
			p = coin{}
		case 1:
			p = flood{}
		case 2:
			p = mixed{}
		default:
			// nilFlood transmits every step, so on bitmap-dense inputs it
			// drives the bit-parallel tally kernel and, around the dispatch
			// thresholds, the scalar/bitset crossover.
			p = nilFlood{}
		}
		// A finite budget keeps livelocking combinations (flood on a
		// colliding front) bounded; both simulators must then agree on the
		// partial result and on hitting the limit at all.
		const budget = 4096
		cfg := Config{Seed: pseed}
		var runner Runner
		fast, fastErr := runner.Run(g, p, cfg, Options{MaxSteps: budget, Fault: plan})
		ref, refCounters, refErr := RunReferenceObserved(g, p, cfg, budget, plan)
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("error mismatch: fast=%v ref=%v", fastErr, refErr)
		}
		if fastErr != nil {
			if !errors.Is(fastErr, ErrStepLimit) || !errors.Is(refErr, ErrStepLimit) {
				t.Fatalf("unexpected errors: fast=%v ref=%v", fastErr, refErr)
			}
		}
		if fast == nil || ref == nil {
			t.Fatalf("nil result without validation error: fast=%v ref=%v", fast, ref)
		}
		if fast.BroadcastTime != ref.BroadcastTime ||
			fast.Transmissions != ref.Transmissions ||
			fast.Receptions != ref.Receptions ||
			fast.Collisions != ref.Collisions {
			t.Fatalf("divergence on %s (n=%d kind=%d):\nfast %+v\nref  %+v",
				p.Name(), n, kind%5, fast, ref)
		}
		if eng := runner.Counters(); eng != refCounters {
			t.Fatalf("counter divergence on %s (n=%d kind=%d):\nengine    %+v\nreference %+v",
				p.Name(), n, kind%5, eng, refCounters)
		}
		for v := range fast.InformedAt {
			if fast.InformedAt[v] != ref.InformedAt[v] {
				t.Fatalf("%s: InformedAt[%d] = %d (optimized) vs %d (reference)",
					p.Name(), v, fast.InformedAt[v], ref.InformedAt[v])
			}
		}
	})
}
