package radio

import (
	"errors"
	"strings"
	"testing"

	"adhocradio/internal/bitset"
	"adhocradio/internal/graph"
	"adhocradio/internal/rng"
)

// assertMatchesReference runs p through a reused Runner and through the
// naive oracle and requires every Result field and every obs.Counters field
// to agree — including runs where both sides exhaust the step budget (the
// livelocking dense workloads that keep the bit-parallel kernel on air hit
// ErrStepLimit by design).
func assertMatchesReference(t *testing.T, g *graph.Graph, p Protocol, cfg Config, maxSteps int) {
	t.Helper()
	r := NewRunner()
	fast, fastErr := r.Run(g, p, cfg, Options{MaxSteps: maxSteps})
	ref, refCounters, refErr := RunReferenceObserved(g, p, cfg, maxSteps, nil)
	if (fastErr == nil) != (refErr == nil) {
		t.Fatalf("error mismatch on %s: fast=%v ref=%v", p.Name(), fastErr, refErr)
	}
	if fastErr != nil && (!errors.Is(fastErr, ErrStepLimit) || !errors.Is(refErr, ErrStepLimit)) {
		t.Fatalf("unexpected errors on %s: fast=%v ref=%v", p.Name(), fastErr, refErr)
	}
	if fast.BroadcastTime != ref.BroadcastTime ||
		fast.Transmissions != ref.Transmissions ||
		fast.Receptions != ref.Receptions ||
		fast.Collisions != ref.Collisions ||
		fast.StepsSimulated != ref.StepsSimulated ||
		fast.Completed != ref.Completed {
		t.Fatalf("divergence on %s:\nfast %+v\nref  %+v", p.Name(), fast, ref)
	}
	for v := range fast.InformedAt {
		if fast.InformedAt[v] != ref.InformedAt[v] {
			t.Fatalf("%s: InformedAt[%d] = %d vs %d", p.Name(), v, fast.InformedAt[v], ref.InformedAt[v])
		}
	}
	if eng := r.Counters(); eng != refCounters {
		t.Fatalf("counter divergence on %s:\nengine    %+v\nreference %+v", p.Name(), eng, refCounters)
	}
}

// kernelLayered builds an n-node complete layered network {1, a, b} whose
// nil-payload flood livelocks with the whole first layer on air every step:
// layer 2 collides forever while layer 1 keeps receiving from the source,
// so every step mixes receptions and collisions through the bit-parallel
// kernel (T = 1+a transmitters, arcs ≈ n²/4, far over the dispatch
// threshold at these densities).
func kernelLayered(t *testing.T, n int) *graph.Graph {
	t.Helper()
	a := (n - 1) / 2
	g, err := graph.CompleteLayered([]int{1, a, n - 1 - a})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.BitmapDense(n, g.Edges()) {
		t.Fatalf("CompleteLayered n=%d unexpectedly not bitmap-dense (arcs=%d)", n, g.Edges())
	}
	return g
}

// TestBitsetKernelMatchesReference drives the bit-parallel tally path on
// dense livelocking graphs straddling every bitplane word boundary (one
// word, exactly full words, one spare bit) and requires exact agreement
// with the oracle on results and counters, including the matched
// step-limit outcome.
func TestBitsetKernelMatchesReference(t *testing.T) {
	for _, n := range []int{9, 63, 64, 65, 127, 128, 129, 200} {
		g := kernelLayered(t, n)
		words := bitset.Words(n)
		a := (n - 1) / 2
		if arcsT := a * (2 + (n - 1 - a)); arcsT < bitsetArcFactor*(1+a)*words {
			t.Fatalf("n=%d: livelocked step would not take the bitset path (arcs=%d, threshold=%d)",
				n, arcsT, bitsetArcFactor*(1+a)*words)
		}
		// nilFlood livelocks on the layered collision front: pure kernel
		// steps until the budget, both sides hitting ErrStepLimit together.
		assertMatchesReference(t, g, nilFlood{}, Config{}, 300)
		// coin sends payloads, which the kernel routes through the same
		// lastFrom pass; run it budgeted (exactly-one-of-k among dense
		// layers is vanishingly rare, so coin livelocks here too).
		assertMatchesReference(t, g, coin{}, Config{Seed: uint64(n)}, 200)
	}
}

// TestBitsetKernelDenseGNP exercises the kernel on irregular dense
// topologies (no layered symmetry: rows have ragged popcounts, some words
// all-zero) across several seeds.
func TestBitsetKernelDenseGNP(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		src := rng.New(seed)
		g := graph.GNPConnected(150, 0.3, src)
		if !graph.BitmapDense(g.N(), g.Edges()) {
			t.Fatalf("seed %d: GNP(150, 0.3) not bitmap-dense (arcs=%d)", seed, g.Edges())
		}
		assertMatchesReference(t, g, nilFlood{}, Config{}, 400)
		assertMatchesReference(t, g, mixed{}, Config{}, 400)
	}
}

// TestBitsetKernelMixedPayloads runs, on a bitmap-dense graph, a protocol
// that puts nil carrier payloads and label-only payloads on air in the same
// step: the kernel must hand each lone receiver its own sender's payload,
// so the SourceCarrier gate informs exactly the nodes the oracle informs.
func TestBitsetKernelMixedPayloads(t *testing.T) {
	src := rng.New(17)
	g := graph.GNPConnected(96, 0.4, src)
	if !graph.BitmapDense(g.N(), g.Edges()) {
		t.Fatalf("GNP(96, 0.4) not bitmap-dense (arcs=%d)", g.Edges())
	}
	assertMatchesReference(t, g, mixed{}, Config{}, 512)
	assertMatchesReference(t, g, nilFlood{}, Config{}, 512)
}

// TestBitsetKernelCollisionDetection runs the collision-detection model
// variant over the kernel path: DeliverCollision must fire deterministically
// for informed listeners. The burst schedule (half the labels on air each
// step) keeps T*words well past the dispatch threshold on a clique.
func TestBitsetKernelCollisionDetection(t *testing.T) {
	g := graph.Clique(80)
	collisionEvents = 0
	fast, err := Run(g, collisionCounter{}, Config{}, Options{MaxSteps: 64, RunToMaxSteps: true, CollisionDetection: true})
	if err != nil {
		t.Fatal(err)
	}
	firstTotal := collisionEvents
	collisionEvents = 0
	again, err := Run(g, collisionCounter{}, Config{}, Options{MaxSteps: 64, RunToMaxSteps: true, CollisionDetection: true})
	if err != nil {
		t.Fatal(err)
	}
	if collisionEvents != firstTotal || firstTotal == 0 {
		t.Fatalf("collision events not deterministic or empty: %d vs %d", collisionEvents, firstTotal)
	}
	if fast.Collisions != again.Collisions || fast.Collisions == 0 {
		t.Fatalf("collision counts diverged or empty: %d vs %d", fast.Collisions, again.Collisions)
	}
	collisionEvents = 0
}

// collisionEvents tallies DeliverCollision calls across a run; test-only.
var collisionEvents int

// collisionCounter transmits in bursts (labels matching the step's parity)
// with nil payloads, so the other half of the clique collides every step.
type collisionCounter struct{}

func (collisionCounter) Name() string { return "collision-counter" }
func (collisionCounter) NewNode(label int, cfg Config) NodeProgram {
	return &collisionCounterNode{label: label}
}

type collisionCounterNode struct{ label int }

func (n *collisionCounterNode) Act(t int) (bool, any)      { return (t+n.label)%2 == 0, nil }
func (n *collisionCounterNode) Deliver(t int, msg Message) {}
func (n *collisionCounterNode) DeliverCollision(t int)     { collisionEvents++ }

// collisionPanicAt is collisionCounter with a DeliverCollision that panics
// at a chosen step — the unwind happens inside the bit-parallel kernel's
// delivery sweep, while all three bitplanes still hold live masks. Every
// transmission carries payload (nil unless set).
type collisionPanicAt struct {
	step    int
	payload any
}

func (p collisionPanicAt) Name() string { return "collision-panic" }
func (p collisionPanicAt) NewNode(label int, cfg Config) NodeProgram {
	return &collisionPanicNode{label: label, step: p.step, payload: p.payload}
}

type collisionPanicNode struct {
	label, step int
	payload     any
}

func (n *collisionPanicNode) Act(t int) (bool, any)      { return (t+n.label)%2 == 0, n.payload }
func (n *collisionPanicNode) Deliver(t int, msg Message) {}
func (n *collisionPanicNode) DeliverCollision(t int) {
	if t == n.step {
		panic("listener bug") //radiolint:ignore nopanic test fixture: poisons the bitplanes mid-kernel to exercise the scratch-rebuild contract
	}
}

// TestBitsetKernelPoisonRecovery panics a listener mid-kernel — inside
// tallyBitset's collision delivery sweep, with hitOnce/hitTwice/txPlane all
// holding live masks — and requires the next run on the same engine to be
// byte-identical to a fresh one. This is the scratch-rebuild contract
// extended to the bitplanes: a poisoned plane word would corrupt the next
// dense trial's tally.
func TestBitsetKernelPoisonRecovery(t *testing.T) {
	g := graph.Clique(100)
	r := NewRunner()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic from listener")
			}
		}()
		_, _ = r.Run(g, collisionPanicAt{step: 4}, Config{},
			Options{MaxSteps: 20, RunToMaxSteps: true, CollisionDetection: true})
	}()
	reused, err := r.Run(g, collisionCounter{}, Config{},
		Options{MaxSteps: 20, RunToMaxSteps: true, CollisionDetection: true})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(g, collisionCounter{}, Config{},
		Options{MaxSteps: 20, RunToMaxSteps: true, CollisionDetection: true})
	if err != nil {
		t.Fatal(err)
	}
	if reused.BroadcastTime != fresh.BroadcastTime ||
		reused.Transmissions != fresh.Transmissions ||
		reused.Receptions != fresh.Receptions ||
		reused.Collisions != fresh.Collisions {
		t.Fatalf("post-panic bitset run diverged:\nreused %+v\nfresh  %+v", reused, fresh)
	}
}

// TestBitsetDispatchCrossover walks one run across all three tally
// strategies: flooding a barbell of two bitmap-dense cliques starts sparse
// (lone source), goes bit-parallel when a whole clique is on air, and
// crawls the bridge on the sparse scalar path. The oracle must agree on
// every field at each flip, for nil payloads and for coin's payloads,
// which take the same flips.
func TestBitsetDispatchCrossover(t *testing.T) {
	g, err := graph.Barbell(70, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.BitmapDense(g.N(), g.Edges()) {
		t.Fatalf("Barbell(70, 8) not bitmap-dense (arcs=%d)", g.Edges())
	}
	assertMatchesReference(t, g, nilFlood{}, Config{}, 2048)
	assertMatchesReference(t, g, coin{}, Config{Seed: 9}, 500)
}

// TestBitsetKernelServesPayloads pins the kernel to payload-carrying steps:
// on Clique(100) with half the labels on air, a listener that panics in
// DeliverCollision must be reached through tallyBitset even though every
// transmission carries a payload.
func TestBitsetKernelServesPayloads(t *testing.T) {
	if stack := panicStack(t, nil); !strings.Contains(stack, "(*Runner).tallyBitset") {
		t.Fatalf("payload-carrying dense step did not take the bit-parallel kernel:\n%s", stack)
	}
}
