package graph

import (
	"testing"

	"adhocradio/internal/rng"
)

// checkCSRMirrors asserts the in-rows are exactly the transpose of the
// out-rows and that an undirected graph stores its arcs once.
func checkCSRMirrors(t *testing.T, g *Graph) {
	t.Helper()
	c := g.Compile()
	if c.NumNodes != g.N() || c.Arcs() != g.Edges() || len(c.InAdj) != c.Arcs() {
		t.Fatalf("CSR has %d nodes, %d arcs, %d in-arcs; graph %d nodes, %d arcs",
			c.NumNodes, c.Arcs(), len(c.InAdj), g.N(), g.Edges())
	}
	in := make(map[[2]int32]bool)
	for v := 0; v < g.N(); v++ {
		for _, u := range g.In(v) {
			in[[2]int32{u, int32(v)}] = true
		}
	}
	if len(in) != c.Arcs() {
		t.Fatalf("in-rows hold %d distinct arcs of %d", len(in), c.Arcs())
	}
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Out(u) {
			if !in[[2]int32{int32(u), w}] {
				t.Fatalf("arc (%d,%d) missing from the in-rows", u, w)
			}
		}
	}
	if g.Undirected() && c.Arcs() > 0 && &c.InAdj[0] != &c.OutAdj[0] {
		t.Fatal("undirected graph stores its in-rows separately from its out-rows")
	}
}

func TestCompileMirrorsSliceAdjacency(t *testing.T) {
	src := rng.New(3)
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"path", Path(17)},
		{"star", Star(9)},
		{"clique", Clique(8)},
		{"gnp", GNPConnected(40, 0.15, src)},
		{"tree", RandomTree(33, src)},
		{"empty", NewBuilder(5, true).MustBuild()},
		{"single", NewBuilder(1, false).MustBuild()},
	}
	if g, err := DirectedLayered(40, 5, 0.3, src); err == nil {
		graphs = append(graphs, struct {
			name string
			g    *Graph
		}{"directed", g})
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) { checkCSRMirrors(t, tc.g) })
	}
}

func TestCompileConcurrentReaders(t *testing.T) {
	// Frozen graph, many concurrent readers: all must get the one CSR laid
	// out at build time (run under -race in the Makefile's race target).
	src := rng.New(11)
	g := GNPConnected(64, 0.1, src)
	done := make(chan *CSR, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- g.Compile() }()
	}
	first := <-done
	for i := 1; i < 8; i++ {
		if c := <-done; c != first {
			t.Fatal("concurrent readers got different CSRs")
		}
	}
	checkCSRMirrors(t, g)
}
