package graph

import (
	"errors"
	"strings"
	"testing"
)

func TestSpecCanonicalZeroesUnusedFields(t *testing.T) {
	// Two requests that differ only in fields the kind ignores must land on
	// the same cache key.
	a := Spec{Kind: "path", N: 16, D: 99, P: 0.5, Seed: 7, Rows: 3, Cols: 3}
	b := Spec{Kind: "path", N: 16}
	ka, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("keys differ for equivalent specs: %q vs %q", ka, kb)
	}
	if ka != "path,n=16" {
		t.Fatalf("canonical key = %q", ka)
	}
}

func TestSpecCanonicalKeys(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Kind: "gnp", N: 256, P: 0.3, Seed: 7}, "gnp,n=256,p=0.3,seed=7"},
		{Spec{Kind: "layered", N: 128, D: 8, P: 0.25, Seed: 1}, "layered,n=128,d=8,p=0.25,seed=1"},
		{Spec{Kind: "grid", Rows: 4, Cols: 5}, "grid,rows=4,cols=5"},
		{Spec{Kind: "hypercube", D: 5}, "hypercube,d=5"},
		{Spec{Kind: "complete", N: 64, D: 4}, "complete,n=64,d=4"},
		{Spec{Kind: "tree", N: 33, Seed: 12}, "tree,n=33,seed=12"},
	}
	for _, c := range cases {
		got, err := c.spec.Canonical()
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		if got != c.want {
			t.Fatalf("Canonical(%+v) = %q, want %q", c.spec, got, c.want)
		}
	}
}

func TestSpecValidationErrors(t *testing.T) {
	cases := []Spec{
		{Kind: "warp", N: 4},                  // unknown kind
		{Kind: "path", N: 0},                  // n too small
		{Kind: "cycle", N: 2},                 // cycle needs 3
		{Kind: "grid", Rows: 0, Cols: 3},      // bad grid
		{Kind: "gnp", N: 8, P: 1.5},           // p out of range
		{Kind: "layered", N: 8, D: 9, P: 0.5}, // d > n-1
		{Kind: "regular", N: 5, D: 3},         // n*d odd
		{Kind: "starchain", N: 3, D: 4},       // fan width 0
		{Kind: "complete", N: 4, D: 0},        // d < 1
		{Kind: "disk", N: 16, P: -1},          // negative radius
		{Kind: "hypercube", D: 31},            // oversized dimension
		{Kind: "hypercube", D: 25},            // over the node limit
		{Kind: "hypercube", D: 18},            // over the arc limit
		{Kind: "path", N: maxSpecNodes + 1},   // over the node limit
		{Kind: "clique", N: 2049},             // over the arc limit
		{Kind: "gnp", N: 1 << 40, P: 0.001},   // n*(n-1) would overflow
		{Kind: "grid", Rows: 1 << 40, Cols: 1 << 40},
		{Kind: "complete", N: 4096, D: 2},
		{Kind: "layered", N: 4096, D: 4, P: 0.01},
		{Kind: "regular", N: 4096, D: 1500},
	}
	for _, c := range cases {
		if _, err := c.Normalize(); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("Normalize(%+v) err = %v, want ErrBadSpec", c, err)
		}
		if _, err := c.Canonical(); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("Canonical(%+v) err = %v, want ErrBadSpec", c, err)
		}
		if _, err := c.Build(); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("Build(%+v) err = %v, want ErrBadSpec", c, err)
		}
	}
}

// sameAdjacency asserts two graphs have identical node counts and adjacency
// entry-for-entry.
func sameAdjacency(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.N() != b.N() {
		t.Fatalf("node counts differ: %d vs %d", a.N(), b.N())
	}
	for v := 0; v < a.N(); v++ {
		ao, bo := a.Out(v), b.Out(v)
		if len(ao) != len(bo) {
			t.Fatalf("node %d out-degree differs: %d vs %d", v, len(ao), len(bo))
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("node %d adjacency differs at %d: %d vs %d", v, i, ao[i], bo[i])
			}
		}
	}
}

func TestSpecBuildDeterministic(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: "path", N: 17},
		{Kind: "star", N: 9},
		{Kind: "clique", N: 8},
		{Kind: "cycle", N: 11},
		{Kind: "grid", Rows: 3, Cols: 7},
		{Kind: "complete", N: 40, D: 4},
		{Kind: "starchain", N: 41, D: 4},
		{Kind: "hypercube", D: 4},
		{Kind: "layered", N: 60, D: 5, P: 0.3, Seed: 9},
		{Kind: "gnp", N: 50, P: 0.2, Seed: 3},
		{Kind: "tree", N: 30, Seed: 5},
		{Kind: "regular", N: 20, D: 4, Seed: 2},
		{Kind: "disk", N: 40, Seed: 8},
	} {
		g1, err := spec.Build()
		if err != nil {
			t.Fatalf("Build(%+v): %v", spec, err)
		}
		g2, err := spec.Build()
		if err != nil {
			t.Fatalf("Build(%+v) rebuild: %v", spec, err)
		}
		sameAdjacency(t, g1, g2)
		if err := g1.Validate(); err != nil {
			t.Fatalf("Build(%+v) graph invalid: %v", spec, err)
		}
	}
}

func TestSpecBuildSeedMatters(t *testing.T) {
	a, err := Spec{Kind: "gnp", N: 64, P: 0.1, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Spec{Kind: "gnp", N: 64, P: 0.1, Seed: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for v := 0; v < a.N() && same; v++ {
		ao, bo := a.Out(v), b.Out(v)
		if len(ao) != len(bo) {
			same = false
			break
		}
		for i := range ao {
			if ao[i] != bo[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical gnp graphs")
	}
}

func TestSpecDiskDefaultRadius(t *testing.T) {
	ns, err := Spec{Kind: "disk", N: 100, Seed: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if ns.P != 0.2 { // 2/sqrt(100)
		t.Fatalf("default disk radius = %v, want 0.2", ns.P)
	}
	key, err := Spec{Kind: "disk", N: 100, Seed: 1}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(key, "p=0.2") {
		t.Fatalf("canonical disk key lacks defaulted radius: %q", key)
	}
}

func TestSpecKindsAllBuildable(t *testing.T) {
	// Every advertised kind has a shape; the Build switch covers it.
	for _, k := range Kinds() {
		if _, ok := shapeFor(k); !ok {
			t.Fatalf("Kinds() lists %q but shapeFor rejects it", k)
		}
	}
}

// TestSpecLimitsAdmitServedSpecs pins the spec limits against the largest
// specs the examples and the radiosd benchmark mix send: those normalize,
// while the hypercube that once passed Normalize and failed in the worker
// is rejected up front. Only Normalize runs; nothing oversized is built.
func TestSpecLimitsAdmitServedSpecs(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: "gnp", N: 2048, P: 4.0 / 2048, Seed: 3},
		{Kind: "gnp", N: 2048, P: 1, Seed: 3},
		{Kind: "disk", N: 2048, Seed: 3},
		{Kind: "clique", N: 2048},
		{Kind: "complete", N: 1600, D: 4},
		{Kind: "complete", N: 1024, D: 8},
		{Kind: "layered", N: 1024, D: 64, P: 0.3, Seed: 1},
		{Kind: "layered", N: 1 << 20, D: 64, Seed: 1},
		{Kind: "grid", Rows: 32, Cols: 32},
		{Kind: "hypercube", D: 17},
		{Kind: "path", N: maxSpecNodes},
	} {
		if _, err := spec.Normalize(); err != nil {
			t.Errorf("Normalize(%+v): %v", spec, err)
		}
	}
	_, err := Spec{Kind: "hypercube", D: 25}.Normalize()
	if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), "limits") {
		t.Fatalf("hypercube d=25: err = %v, want the size-limit ErrBadSpec", err)
	}
}

// TestSpecSizeMatchesBuild checks the worst-case size Normalize bounds
// against real graphs built with every random edge present.
func TestSpecSizeMatchesBuild(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: "path", N: 17},
		{Kind: "star", N: 9},
		{Kind: "clique", N: 8},
		{Kind: "cycle", N: 11},
		{Kind: "grid", Rows: 3, Cols: 7},
		{Kind: "complete", N: 40, D: 4},
		{Kind: "complete", N: 41, D: 3},
		{Kind: "starchain", N: 41, D: 4},
		{Kind: "hypercube", D: 4},
		{Kind: "layered", N: 60, D: 5, P: 1, Seed: 9},
		{Kind: "layered", N: 60, D: 5, Seed: 9},
		{Kind: "gnp", N: 50, P: 1, Seed: 3},
		{Kind: "tree", N: 30, Seed: 5},
		{Kind: "regular", N: 20, D: 4, Seed: 2},
		{Kind: "disk", N: 40, P: 2, Seed: 8},
	} {
		ns, err := spec.Normalize()
		if err != nil {
			t.Fatalf("Normalize(%+v): %v", spec, err)
		}
		g, err := ns.Build()
		if err != nil {
			t.Fatalf("Build(%+v): %v", spec, err)
		}
		if nodes, arcs := ns.size(); nodes != int64(g.N()) || arcs != int64(g.Edges()) {
			t.Errorf("%+v: size() = %d nodes, %d arcs; built %d, %d", spec, nodes, arcs, g.N(), g.Edges())
		}
	}
}
