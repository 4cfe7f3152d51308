package radio

import (
	"errors"
	"testing"

	"adhocradio/internal/graph"
	"adhocradio/internal/rng"
)

// flood transmits in every step once informed: correct on collision-free
// topologies, livelocks where fronts collide.
type flood struct{}

func (flood) Name() string                              { return "flood" }
func (flood) NewNode(label int, cfg Config) NodeProgram { return &floodNode{} }

type floodNode struct{}

func (fn *floodNode) Act(t int) (bool, any)      { return true, "m" }
func (fn *floodNode) Deliver(t int, msg Message) {}

func TestFloodOnPath(t *testing.T) {
	g := graph.Path(6)
	res, err := Run(g, flood{}, Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.BroadcastTime != 5 {
		t.Fatalf("BroadcastTime = %d, want 5", res.BroadcastTime)
	}
	for v, at := range res.InformedAt {
		if at != v {
			t.Fatalf("InformedAt[%d] = %d", v, at)
		}
	}
}

func TestFloodOnStar(t *testing.T) {
	res, err := Run(graph.Star(10), flood{}, Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BroadcastTime != 1 {
		t.Fatalf("BroadcastTime = %d, want 1", res.BroadcastTime)
	}
}

func TestFloodCollisionLivelock(t *testing.T) {
	// Layer sizes [2,1]: both layer-1 nodes transmit forever, colliding at
	// the single layer-2 node; broadcast never completes.
	g, err := graph.CompleteLayered([]int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, flood{}, Config{}, Options{MaxSteps: 200})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
	if res.Completed {
		t.Fatal("reported completed despite livelock")
	}
	if res.Collisions == 0 {
		t.Fatal("no collisions recorded")
	}
	if res.InformedAt[3] != -1 {
		t.Fatalf("layer-2 node informed at %d", res.InformedAt[3])
	}
}

// onceAt transmits exactly at the given step after becoming informed.
type onceAt struct{ step int }

func (o onceAt) Name() string { return "onceAt" }
func (o onceAt) NewNode(label int, cfg Config) NodeProgram {
	return &onceAtNode{step: o.step, isSource: label == 0}
}

type onceAtNode struct {
	step     int
	isSource bool
	got      []Message
}

func (n *onceAtNode) Act(t int) (bool, any) {
	if n.isSource && t == n.step {
		return true, t
	}
	return false, nil
}
func (n *onceAtNode) Deliver(t int, msg Message) { n.got = append(n.got, msg) }

func TestMessageContents(t *testing.T) {
	g := graph.Star(3)
	var seen []Message
	trace := func(step int, tx []int, rx []Message) {
		seen = append(seen, rx...)
	}
	res, err := Run(g, onceAt{step: 4}, Config{}, Options{Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if res.BroadcastTime != 4 {
		t.Fatalf("BroadcastTime = %d", res.BroadcastTime)
	}
	if len(seen) != 2 {
		t.Fatalf("receptions = %d", len(seen))
	}
	for _, m := range seen {
		if m.From != 0 || m.Payload.(int) != 4 {
			t.Fatalf("message = %+v", m)
		}
	}
	if res.Transmissions != 1 || res.Receptions != 2 {
		t.Fatalf("tx=%d rx=%d", res.Transmissions, res.Receptions)
	}
}

// halfDuplexProbe: node 0 and node 1 both transmit at step 1 (node 1 is
// pre-informed via a first message at... impossible: only source informed).
// Instead test half-duplex on a triangle: source transmits step 1 informing
// 1 and 2; at step 2, nodes 1 and 2 transmit while source listens: source
// must record a collision, and 1,2 must hear nothing from each other.
type hdProbe struct{}

func (hdProbe) Name() string { return "hdProbe" }
func (hdProbe) NewNode(label int, cfg Config) NodeProgram {
	return &hdNode{label: label}
}

type hdNode struct {
	label      int
	informedAt int
	heard      int
}

func (n *hdNode) Act(t int) (bool, any) {
	if n.label == 0 {
		return t == 1, "src"
	}
	return t == n.informedAt+1, "echo"
}
func (n *hdNode) Deliver(t int, msg Message) {
	if n.informedAt == 0 && n.label != 0 {
		n.informedAt = t
	}
	n.heard++
}

func TestHalfDuplexAndCollision(t *testing.T) {
	g := graph.Clique(3)
	res, err := Run(g, hdProbe{}, Config{}, Options{MaxSteps: 10, RunToMaxSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	// Step 1: source informs 1 and 2. Step 2: both transmit; source hears a
	// collision; neither 1 nor 2 receives (they transmitted).
	if res.Collisions != 1 {
		t.Fatalf("collisions = %d, want 1", res.Collisions)
	}
	if res.Receptions != 2 {
		t.Fatalf("receptions = %d, want 2", res.Receptions)
	}
}

// cdProbe verifies the collision-detection model variant.
type cdProbe struct{}

func (cdProbe) Name() string { return "cdProbe" }
func (cdProbe) NewNode(label int, cfg Config) NodeProgram {
	return &cdNode{label: label}
}

type cdNode struct {
	label      int
	collisions int
	informedAt int
}

func (n *cdNode) Act(t int) (bool, any) {
	if n.label == 0 {
		return t == 1, "src"
	}
	return t == n.informedAt+1, "echo"
}
func (n *cdNode) Deliver(t int, msg Message) {
	if n.informedAt == 0 && n.label != 0 {
		n.informedAt = t
	}
}
func (n *cdNode) DeliverCollision(t int) { n.collisions++ }

func TestCollisionDetectionVariant(t *testing.T) {
	g := graph.Clique(3)
	p := cdProbe{}
	// Build programs through a capturing protocol so we can inspect them.
	cap := &capturing{inner: p}
	_, err := Run(g, cap, Config{}, Options{MaxSteps: 10, RunToMaxSteps: true, CollisionDetection: true})
	if err != nil {
		t.Fatal(err)
	}
	src := cap.nodes[0].(*cdNode)
	if src.collisions != 1 {
		t.Fatalf("source saw %d collisions, want 1", src.collisions)
	}

	// Without the variant, no collision callbacks.
	cap2 := &capturing{inner: p}
	_, err = Run(g, cap2, Config{}, Options{MaxSteps: 10, RunToMaxSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	if cap2.nodes[0].(*cdNode).collisions != 0 {
		t.Fatal("collision delivered outside CD variant")
	}
}

// capturing wraps a protocol and remembers the programs it built.
type capturing struct {
	inner Protocol
	nodes map[int]NodeProgram
}

func (c *capturing) Name() string { return c.inner.Name() }
func (c *capturing) NewNode(label int, cfg Config) NodeProgram {
	if c.nodes == nil {
		c.nodes = map[int]NodeProgram{}
	}
	n := c.inner.NewNode(label, cfg)
	c.nodes[label] = n
	return n
}

// coin transmits with probability 1/2 each step; used for determinism tests.
type coin struct{}

func (coin) Name() string { return "coin" }
func (coin) NewNode(label int, cfg Config) NodeProgram {
	return &coinNode{src: rng.NewStream(cfg.Seed, uint64(label))}
}

type coinNode struct{ src *rng.Source }

func (n *coinNode) Act(t int) (bool, any)      { return n.src.Bool(), "c" }
func (n *coinNode) Deliver(t int, msg Message) {}

func TestSeedDeterminism(t *testing.T) {
	src := rng.New(9)
	g := graph.GNPConnected(40, 0.1, src)
	a, err := Run(g, coin{}, Config{Seed: 7}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, coin{}, Config{Seed: 7}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.BroadcastTime != b.BroadcastTime || a.Transmissions != b.Transmissions {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c, err := Run(g, coin{}, Config{Seed: 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Different seed should (with overwhelming probability) change the
	// transmission count on a 40-node run.
	if a.Transmissions == c.Transmissions && a.BroadcastTime == c.BroadcastTime {
		t.Log("warning: different seeds produced identical metrics (possible but unlikely)")
	}
}

func TestSingleNodeGraph(t *testing.T) {
	g := graph.NewBuilder(1, true).MustBuild()
	res, err := Run(g, flood{}, Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.BroadcastTime != 0 {
		t.Fatalf("single node result %+v", res)
	}
}

func TestEmptyGraphError(t *testing.T) {
	if _, err := Run(graph.NewBuilder(0, true).MustBuild(), flood{}, Config{}, Options{}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestConfigMismatch(t *testing.T) {
	if _, err := Run(graph.Path(3), flood{}, Config{N: 5}, Options{}); err == nil {
		t.Fatal("mismatched cfg.N accepted")
	}
}

func TestLabelBound(t *testing.T) {
	if (Config{N: 8}).LabelBound() != 7 {
		t.Fatal("default LabelBound wrong")
	}
	if (Config{N: 8, R: 15}).LabelBound() != 15 {
		t.Fatal("explicit LabelBound wrong")
	}
}

func TestDefaultMaxStepsMonotone(t *testing.T) {
	prev := 0
	for _, n := range []int{1, 2, 4, 100, 5000} {
		m := DefaultMaxSteps(n)
		if m <= 0 || m < prev {
			t.Fatalf("DefaultMaxSteps(%d) = %d not positive/monotone", n, m)
		}
		prev = m
	}
}

func TestRunToMaxSteps(t *testing.T) {
	res, err := Run(graph.Path(3), flood{}, Config{}, Options{MaxSteps: 50, RunToMaxSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsSimulated != 50 {
		t.Fatalf("StepsSimulated = %d, want 50", res.StepsSimulated)
	}
	if res.BroadcastTime != 2 {
		t.Fatalf("BroadcastTime = %d, want 2", res.BroadcastTime)
	}
}

func TestDirectedDelivery(t *testing.T) {
	// Directed path 0 -> 1 -> 2: flood completes; reverse arcs absent so no
	// collisions at all.
	b := graph.NewBuilder(3, false)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	g := b.MustBuild()
	res, err := Run(g, flood{}, Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BroadcastTime != 2 || res.Collisions != 0 {
		t.Fatalf("directed run %+v", res)
	}
}
