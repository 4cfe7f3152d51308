package graph

import (
	"bytes"
	"strings"
	"testing"

	"adhocradio/internal/rng"
)

func TestWriteDOTUndirected(t *testing.T) {
	g := Path(3)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "p"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph p {", "0 [shape=doublecircle]", "0 -- 1;", "1 -- 2;"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "1 -- 0") {
		t.Fatal("undirected edge emitted twice")
	}
}

func TestWriteDOTDirected(t *testing.T) {
	b := NewBuilder(2, false)
	b.MustAddEdge(0, 1)
	g := b.MustBuild()
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph radio {") || !strings.Contains(buf.String(), "0 -> 1;") {
		t.Fatalf("dot output:\n%s", buf.String())
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	src := rng.New(4)
	for _, g := range []*Graph{
		Path(7),
		GNPConnected(30, 0.1, src),
		mustDirected(t, src),
	} {
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.N() != g.N() || back.Edges() != g.Edges() || back.Undirected() != g.Undirected() {
			t.Fatalf("round trip changed shape: %s vs %s", g.Stats(), back.Stats())
		}
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Out(u) {
				if !back.HasEdge(u, int(v)) {
					t.Fatalf("lost edge (%d,%d)", u, v)
				}
			}
		}
	}
}

func mustDirected(t *testing.T, src *rng.Source) *Graph {
	t.Helper()
	g, err := DirectedLayered(20, 4, 0.3, src)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# a comment\n\nnodes 3 undirected\n0 1\n# another\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || !g.HasEdge(0, 1) || !g.HasEdge(2, 1) {
		t.Fatalf("parsed %s", g.Stats())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",                                // empty
		"nodes x undirected\n",            // bad count
		"nodes 3 sideways\n",              // bad kind
		"0 1\n",                           // edge before header
		"nodes 3 undirected\n0\n",         // malformed edge
		"nodes 3 undirected\n0 9\n",       // out of range
		"nodes 3 undirected\n0 1\n0 1\n",  // duplicate
		"nodes 2 undirected\n0 0\n",       // self loop
		"nodes -1 undirected\n",           // negative
		"nodes 3 undirected extra oops\n", // too many fields
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}
