package graph

import (
	"bytes"
	"errors"
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
