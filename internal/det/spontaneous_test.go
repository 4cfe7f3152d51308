package det

import (
	"testing"

	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
	"adhocradio/internal/rng"
)

func TestSpontaneousLinearWithinThreeN(t *testing.T) {
	src := rng.New(1)
	graphs := []*graph.Graph{
		graph.Path(40),
		graph.Star(40),
		graph.Clique(30),
		graph.Grid(6, 7),
		graph.RandomTree(100, src),
		graph.GNPConnected(100, 0.05, src),
	}
	for _, g := range graphs {
		res := mustRun(t, g, SpontaneousLinear{})
		bound := (g.N() - 1 + 1) + 2*g.N() // (R+1) + 2n
		if res.BroadcastTime > bound {
			t.Fatalf("n=%d: time %d exceeds (R+1)+2n = %d", g.N(), res.BroadcastTime, bound)
		}
	}
}

func TestSpontaneousLinearLinearScaling(t *testing.T) {
	src := rng.New(2)
	t1 := mustRun(t, graph.RandomTree(200, src), SpontaneousLinear{}).BroadcastTime
	t2 := mustRun(t, graph.RandomTree(400, src), SpontaneousLinear{}).BroadcastTime
	ratio := float64(t2) / float64(t1)
	if ratio > 2.6 {
		t.Fatalf("doubling n scaled time by %.2f; not linear", ratio)
	}
}

func TestSpontaneousLinearBeatsSelectAndSend(t *testing.T) {
	// The point of the model variant: O(n) beats Θ(n log n).
	src := rng.New(3)
	g := graph.RandomTree(500, src)
	sp := mustRun(t, g, SpontaneousLinear{}).BroadcastTime
	ss := mustRun(t, g, SelectAndSend{}).BroadcastTime
	if sp >= ss {
		t.Fatalf("spontaneous %d not faster than select-and-send %d", sp, ss)
	}
}

func TestSpontaneousNeighborDiscoveryExact(t *testing.T) {
	// After phase 1, each node's discovered neighbor set must equal the
	// graph's adjacency. Inspect the programs through a capturing protocol.
	g := graph.Grid(4, 4)
	nodes := map[int]*spontNode{}
	capturing := capturingProtocol{
		inner: SpontaneousLinear{},
		hook: func(label int, prog radio.NodeProgram) {
			nodes[label] = prog.(*spontNode)
		},
	}
	if _, err := radio.Run(g, capturing, radio.Config{}, radio.Options{}); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		prog := nodes[v]
		if prog == nil {
			t.Fatalf("no program for %d", v)
		}
		want := map[int]bool{}
		for _, u := range g.Out(v) {
			want[int(u)] = true
		}
		if len(prog.neighbors) != len(want) {
			t.Fatalf("node %d discovered %v, want %v", v, prog.neighbors, g.Out(v))
		}
		for _, u := range prog.neighbors {
			if !want[u] {
				t.Fatalf("node %d discovered non-neighbor %d", v, u)
			}
		}
	}
}

// capturingProtocol exposes the programs the simulator builds. It forwards
// the Spontaneous marker so Run treats it like the inner protocol.
type capturingProtocol struct {
	inner radio.Protocol
	hook  func(label int, prog radio.NodeProgram)
}

func (c capturingProtocol) Name() string { return c.inner.Name() }
func (c capturingProtocol) Spontaneous() bool {
	sp, ok := c.inner.(radio.SpontaneousProtocol)
	return ok && sp.Spontaneous()
}
func (c capturingProtocol) NewNode(label int, cfg radio.Config) radio.NodeProgram {
	prog := c.inner.NewNode(label, cfg)
	c.hook(label, prog)
	return prog
}

func TestSpontaneousInformednessIsFaithful(t *testing.T) {
	// Phase-1 announcements from non-source nodes must not inform anyone:
	// on a path, node v's informed step is governed by the source's
	// announcement (neighbors of 0) and then the DFS walk, never by a
	// plain label announcement.
	g := graph.Path(10)
	res := mustRun(t, g, SpontaneousLinear{})
	if res.InformedAt[1] != 1 {
		t.Fatalf("neighbor of source informed at %d, want 1 (source announcement)", res.InformedAt[1])
	}
	// Node 2 hears node 1's announcement at step 2, which must NOT inform
	// it; it waits for the phase-2 token.
	if res.InformedAt[2] <= g.N() {
		t.Fatalf("node 2 informed at %d, before phase 2", res.InformedAt[2])
	}
}

func TestSpontaneousMarkers(t *testing.T) {
	var p radio.Protocol = SpontaneousLinear{}
	sp, ok := p.(radio.SpontaneousProtocol)
	if !ok || !sp.Spontaneous() {
		t.Fatal("SpontaneousLinear must declare spontaneity")
	}
	d, ok := p.(radio.DeterministicProtocol)
	if !ok || !d.Deterministic() {
		t.Fatal("SpontaneousLinear must declare determinism")
	}
}
