package graph

import (
	"testing"

	"adhocradio/internal/bitset"
	"adhocradio/internal/rng"
)

// checkBitmapMirrors asserts the bitmap rows agree bit-for-bit with the
// slice adjacency: bit v of row u set iff the arc u->v exists.
func checkBitmapMirrors(t *testing.T, g *Graph) {
	t.Helper()
	b := g.CompileBitmap()
	if b.NumNodes != g.N() {
		t.Fatalf("NumNodes = %d, want %d", b.NumNodes, g.N())
	}
	if b.WordsPerRow != bitset.Words(g.N()) {
		t.Fatalf("WordsPerRow = %d, want %d", b.WordsPerRow, bitset.Words(g.N()))
	}
	for u := 0; u < g.N(); u++ {
		row := b.OutRow(u)
		if len(row) != b.WordsPerRow {
			t.Fatalf("node %d: row length %d, want %d", u, len(row), b.WordsPerRow)
		}
		if got, want := bitset.OnesCount(row), g.OutDegree(u); got != want {
			t.Fatalf("node %d: row popcount %d, want out-degree %d", u, got, want)
		}
		for _, v := range g.Out(u) {
			if !bitset.Test(row, int(v)) {
				t.Fatalf("node %d: bit %d clear for arc (%d,%d)", u, v, u, v)
			}
		}
	}
}

func TestCompileBitmapMirrorsSliceAdjacency(t *testing.T) {
	src := rng.New(5)
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"path", Path(17)},
		{"star", Star(9)},
		{"clique", Clique(8)},
		{"clique64", Clique(64)},   // exactly one word per row
		{"clique65", Clique(65)},   // word-boundary straddle
		{"clique128", Clique(128)}, // exactly two words per row
		{"gnp", GNPConnected(70, 0.2, src)},
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
		t.Run(tc.name, func(t *testing.T) { checkBitmapMirrors(t, tc.g) })
	}
}

func TestCompileBitmapConcurrentReaders(t *testing.T) {
	// Frozen dense graph, many concurrent readers: all must get the one
	// bitmap laid out at build time (run under -race in the Makefile's race
	// target).
	src := rng.New(13)
	g := GNPConnected(64, 0.2, src)
	if !BitmapDense(g.N(), g.Edges()) {
		t.Fatalf("test graph not dense: %s", g.Stats())
	}
	done := make(chan *Bitmap, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- g.CompileBitmap() }()
	}
	first := <-done
	for i := 1; i < 8; i++ {
		if b := <-done; b != first {
			t.Fatal("concurrent readers got different bitmaps")
		}
	}
	checkBitmapMirrors(t, g)
}

func TestBitmapBuiltWithDenseGraphs(t *testing.T) {
	dense := Clique(8)
	if dense.bmp == nil || dense.CompileBitmap() != dense.bmp {
		t.Fatal("dense graph not built with its bitmap rows")
	}
	sparse := Path(100)
	if sparse.bmp != nil {
		t.Fatal("sparse graph built with bitmap rows")
	}
	if sparse.CompileBitmap() == sparse.CompileBitmap() {
		t.Fatal("sparse graph's on-demand bitmap was cached on the graph")
	}
}

func TestBitmapDense(t *testing.T) {
	cases := []struct {
		n, m int
		want bool
	}{
		{0, 0, false},           // empty graph never qualifies
		{1, 0, false},           // 1*0*32 < 1
		{64, 128, true},         // 128*32 = 4096 = 64²
		{64, 127, false},        // just under the floor
		{256, 256 * 255, true},  // clique
		{1024, 4096, false},     // sparse GNP(4/n)
		{100000, 100000, false}, // million-node-scale sparse graph
		{80, 80 * 16, true},     // GNP(0.2) at fuzz scale
	}
	for _, c := range cases {
		if got := BitmapDense(c.n, c.m); got != c.want {
			t.Errorf("BitmapDense(%d, %d) = %v, want %v", c.n, c.m, got, c.want)
		}
	}
}
