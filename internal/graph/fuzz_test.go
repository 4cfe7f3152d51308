package graph

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
)

// FuzzReadEdgeList checks the parser never panics and that everything it
// accepts round-trips to an identical encoding.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("nodes 3 undirected\n0 1\n1 2\n")
	f.Add("nodes 2 directed\n0 1\n")
	f.Add("# comment\nnodes 1 undirected\n")
	f.Add("nodes 4 undirected\n0 1\n0 2\n0 3\n")
	f.Add("garbage")
	f.Add("nodes 99999999999999999999 undirected\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("accepted graph failed to encode: %v", err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.N() != g.N() || back.Edges() != g.Edges() {
			t.Fatalf("round trip changed shape")
		}
		if err := back.Validate(); err != nil && err != ErrNotBroadcastable {
			t.Fatalf("parsed graph structurally invalid: %v", err)
		}
	})
}

// FuzzSpecNormalize checks the topology-spec boundary radiosd decodes from
// requests: Normalize never panics, rejects only with ErrBadSpec, is
// idempotent, and Canonical gives a spec and its normal form one key.
func FuzzSpecNormalize(f *testing.F) {
	f.Add("gnp", 96, 0, 0, 0, 0.08, uint64(11))
	f.Add("disk", 64, 0, 0, 0, 0.0, uint64(3))
	f.Add("grid", 0, 0, 4, 5, 0.0, uint64(0))
	f.Add("regular", 9, 3, 0, 0, 0.0, uint64(1))
	f.Add("starchain", 10, 3, 0, 0, 0.0, uint64(0))
	f.Add("hypercube", 0, 31, 0, 0, 0.0, uint64(0))
	f.Add("layered", 8, 9, 1, 1, 1.5, uint64(2))
	f.Add("warp", 4, 0, 0, 0, 0.0, uint64(0))
	f.Fuzz(func(t *testing.T, kind string, n, d, rows, cols int, p float64, seed uint64) {
		s := Spec{Kind: kind, N: n, D: d, Rows: rows, Cols: cols, P: p, Seed: seed}
		ns, err := s.Normalize()
		key, kerr := s.Canonical()
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("Normalize(%+v) error %v does not wrap ErrBadSpec", s, err)
			}
			if kerr == nil {
				t.Fatalf("Canonical accepted %+v, which Normalize rejects", s)
			}
			return
		}
		again, err := ns.Normalize()
		if err != nil {
			t.Fatalf("normal form %+v rejected: %v", ns, err)
		}
		if again != ns {
			t.Fatalf("Normalize not idempotent: %+v then %+v", ns, again)
		}
		nkey, err := ns.Canonical()
		if kerr != nil || err != nil || key != nkey {
			t.Fatalf("Canonical(%+v) = %q, %v but Canonical(Normalize) = %q, %v", s, key, kerr, nkey, err)
		}
	})
}

// FuzzBuilder checks Build against a naive model of the arc lists: each
// byte pair of arcs is one AddEdge call, with endpoints reaching two past
// either end of the node range. AddEdge must reject exactly the
// out-of-range endpoints and self-loops, Build must fail exactly when some
// arc repeats, and otherwise every Out and In row must be its node's arcs
// in insertion order, with In equal to Out when undirected.
func FuzzBuilder(f *testing.F) {
	f.Add(uint8(4), true, []byte{2, 3, 3, 4, 2, 4})
	f.Add(uint8(4), false, []byte{2, 3, 3, 2, 5, 3})
	f.Add(uint8(3), true, []byte{2, 3, 3, 2})  // reverse of an undirected edge
	f.Add(uint8(5), false, []byte{2, 4, 2, 4}) // duplicate arc
	f.Add(uint8(2), true, []byte{0, 3, 2, 2, 1, 7})
	f.Add(uint8(0), false, []byte{1, 2})
	f.Fuzz(func(t *testing.T, size uint8, undirected bool, arcs []byte) {
		n := int(size % 32)
		endpoint := func(x byte) int { return int(x)%(n+4) - 2 }
		b := NewBuilder(n, undirected)
		out := make([][]int32, n)
		in := make([][]int32, n)
		for i := 0; i+1 < len(arcs); i += 2 {
			u, v := endpoint(arcs[i]), endpoint(arcs[i+1])
			valid := u >= 0 && u < n && v >= 0 && v < n && u != v
			if err := b.AddEdge(u, v); (err == nil) != valid {
				t.Fatalf("AddEdge(%d,%d) on %d nodes: err = %v", u, v, n, err)
			}
			if !valid {
				continue
			}
			out[u] = append(out[u], int32(v))
			in[v] = append(in[v], int32(u))
			if undirected {
				out[v] = append(out[v], int32(u))
				in[u] = append(in[u], int32(v))
			}
		}
		dup := false
		for _, row := range out {
			seen := map[int32]bool{}
			for _, w := range row {
				dup = dup || seen[w]
				seen[w] = true
			}
		}
		g, err := b.Build()
		if (err != nil) != dup {
			t.Fatalf("Build err = %v, want error iff a duplicate arc exists (%v)", err, dup)
		}
		if err != nil {
			return
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(g.Out(v), out[v]) || !slices.Equal(g.In(v), in[v]) {
				t.Fatalf("node %d: Out %v In %v, want %v and %v", v, g.Out(v), g.In(v), out[v], in[v])
			}
			if undirected && !slices.Equal(g.In(v), g.Out(v)) {
				t.Fatalf("node %d: undirected In %v != Out %v", v, g.In(v), g.Out(v))
			}
		}
	})
}
