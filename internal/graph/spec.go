package graph

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"adhocradio/internal/rng"
)

// Spec is a canonical, serializable description of a generated topology:
// the generator kind plus the parameters (and seed) that make construction
// deterministic. Two Specs that normalize to the same Canonical() key build
// byte-identical graphs, which is exactly the contract the service layer's
// compiled-graph cache needs — the key captures everything the generator
// consumes, so a cache hit can never change a simulation result.
//
// Field usage per kind (unused fields must be zero after Normalize):
//
//	path, star, clique, cycle   N
//	grid                        Rows, Cols
//	complete                    N, D        (uniform complete layered)
//	starchain                   N, D        (fan width (N-1)/(D+1), as radiosim)
//	hypercube                   D           (dimension; 2^D nodes)
//	layered                     N, D, P, Seed
//	gnp                         N, P, Seed
//	tree                        N, Seed
//	regular                     N, D, Seed  (random D-regular)
//	disk                        N, P, Seed  (P = radius; 0 defaults to 2/sqrt(N))
type Spec struct {
	Kind string  `json:"kind"`
	N    int     `json:"n,omitempty"`
	D    int     `json:"d,omitempty"`
	Rows int     `json:"rows,omitempty"`
	Cols int     `json:"cols,omitempty"`
	P    float64 `json:"p,omitempty"`
	Seed uint64  `json:"seed,omitempty"`
}

// ErrBadSpec is the sentinel wrapped by every Spec validation failure;
// discriminate with errors.Is.
var ErrBadSpec = errors.New("graph: invalid topology spec")

// maxSpecNodes and maxSpecArcs bound the graph one Spec may build, so a
// single request cannot make radiosd allocate without bound before any
// deadline applies. Arcs are counted in the worst case, every random edge
// present: a gnp spec with n = 2048 is admitted at any p, as is a complete
// layered network of about 3,300 nodes at d = 4.
const (
	maxSpecNodes = 1 << 20
	maxSpecArcs  = 1 << 22
)

// specShape describes which fields a kind consumes and which constraints
// they obey; the table keeps Normalize, Canonical and Build agreeing on the
// field set without three switch statements drifting apart.
type specShape struct {
	n, d, rows, p, seed bool // rows implies cols
	minN                int
}

// shapeFor returns the field shape for kind; ok is false for unknown kinds.
// A switch (not a map) so the dispatch is trivially deterministic.
func shapeFor(kind string) (specShape, bool) {
	switch kind {
	case "path", "star", "clique":
		return specShape{n: true, minN: 1}, true
	case "cycle":
		return specShape{n: true, minN: 3}, true
	case "grid":
		return specShape{rows: true}, true
	case "complete":
		return specShape{n: true, d: true, minN: 2}, true
	case "starchain":
		return specShape{n: true, d: true, minN: 2}, true
	case "hypercube":
		return specShape{d: true}, true
	case "layered":
		return specShape{n: true, d: true, p: true, seed: true, minN: 2}, true
	case "gnp":
		return specShape{n: true, p: true, seed: true, minN: 1}, true
	case "tree":
		return specShape{n: true, seed: true, minN: 1}, true
	case "regular":
		return specShape{n: true, d: true, seed: true, minN: 2}, true
	case "disk":
		return specShape{n: true, p: true, seed: true, minN: 1}, true
	default:
		return specShape{}, false
	}
}

// Kinds lists every spec kind Build understands, in canonical order.
func Kinds() []string {
	return []string{"clique", "complete", "cycle", "disk", "gnp", "grid",
		"hypercube", "layered", "path", "regular", "star", "starchain", "tree"}
}

// Normalize validates s and returns the canonical form: unused fields are
// zeroed (so equivalent requests collapse onto one cache key), kind-specific
// defaults are filled in, and every constraint the generators require is
// checked up front, the size limits (maxSpecNodes, maxSpecArcs) included.
// The error wraps ErrBadSpec.
func (s Spec) Normalize() (Spec, error) {
	shape, ok := shapeFor(s.Kind)
	if !ok {
		return Spec{}, fmt.Errorf("%w: unknown kind %q (known: %s)",
			ErrBadSpec, s.Kind, strings.Join(Kinds(), ", "))
	}
	out := Spec{Kind: s.Kind}
	if shape.n {
		if s.N < shape.minN || s.N > maxSpecNodes {
			return Spec{}, fmt.Errorf("%w: %s needs n in [%d,%d], got %d", ErrBadSpec, s.Kind, shape.minN, maxSpecNodes, s.N)
		}
		out.N = s.N
	}
	if shape.d {
		if s.D < 1 {
			return Spec{}, fmt.Errorf("%w: %s needs d >= 1, got %d", ErrBadSpec, s.Kind, s.D)
		}
		out.D = s.D
	}
	if shape.rows {
		if s.Rows < 1 || s.Cols < 1 || s.Rows > maxSpecNodes || s.Cols > maxSpecNodes {
			return Spec{}, fmt.Errorf("%w: grid needs rows, cols in [1,%d], got %dx%d", ErrBadSpec, maxSpecNodes, s.Rows, s.Cols)
		}
		out.Rows, out.Cols = s.Rows, s.Cols
	}
	if shape.p {
		if s.P < 0 || math.IsNaN(s.P) || math.IsInf(s.P, 0) {
			return Spec{}, fmt.Errorf("%w: %s needs a finite p >= 0, got %v", ErrBadSpec, s.Kind, s.P)
		}
		out.P = s.P
		switch s.Kind {
		case "layered", "gnp":
			if s.P > 1 {
				return Spec{}, fmt.Errorf("%w: %s needs p in [0,1], got %v", ErrBadSpec, s.Kind, s.P)
			}
		case "disk":
			if out.P == 0 {
				// The ad hoc deployment default radiosim uses: dense enough
				// to be connected after patching, sparse enough to be radio.
				out.P = 2 / math.Sqrt(float64(s.N))
			}
		}
	}
	if shape.seed {
		out.Seed = s.Seed
	}
	// Kind-specific structural constraints the generators would otherwise
	// reject mid-build.
	switch s.Kind {
	case "complete":
		if out.D > out.N-1 {
			return Spec{}, fmt.Errorf("%w: %s needs d <= n-1, got d=%d n=%d", ErrBadSpec, s.Kind, out.D, out.N)
		}
	case "starchain":
		if (out.N-1)/(out.D+1) < 1 {
			return Spec{}, fmt.Errorf("%w: starchain needs n >= d+2 (fan width >= 1), got n=%d d=%d", ErrBadSpec, out.N, out.D)
		}
	case "layered":
		if out.D > out.N-1 {
			return Spec{}, fmt.Errorf("%w: layered needs d <= n-1, got d=%d n=%d", ErrBadSpec, out.D, out.N)
		}
	case "hypercube":
		if out.D > 30 {
			return Spec{}, fmt.Errorf("%w: hypercube dimension %d is unreasonably large", ErrBadSpec, out.D)
		}
	case "regular":
		if out.N*out.D%2 != 0 {
			return Spec{}, fmt.Errorf("%w: regular needs n*d even, got n=%d d=%d", ErrBadSpec, out.N, out.D)
		}
		if out.D > out.N-1 {
			return Spec{}, fmt.Errorf("%w: regular needs d <= n-1, got d=%d n=%d", ErrBadSpec, out.D, out.N)
		}
	}
	if nodes, arcs := out.size(); nodes > maxSpecNodes || arcs > maxSpecArcs {
		return Spec{}, fmt.Errorf("%w: %s builds %d nodes and up to %d arcs; the limits are %d and %d",
			ErrBadSpec, s.Kind, nodes, arcs, maxSpecNodes, maxSpecArcs)
	}
	return out, nil
}

// size returns the node count of the graph a spec that passed Normalize's
// other checks builds, and its arc count with every random edge present.
// Those checks bound n, rows, cols and d, so nothing here overflows.
func (s Spec) size() (nodes, arcs int64) {
	n, d := int64(s.N), int64(s.D)
	switch s.Kind {
	case "path", "star", "tree":
		return n, 2 * (n - 1)
	case "cycle":
		return n, 2 * n
	case "clique", "gnp", "disk":
		return n, n * (n - 1)
	case "grid":
		r, c := int64(s.Rows), int64(s.Cols)
		return r * c, 2 * (r*(c-1) + c*(r-1))
	case "starchain":
		w := (n - 1) / (d + 1)
		return 1 + d*(w+1), 4 * d * w
	case "hypercube":
		return 1 << d, d << d
	case "regular":
		return n, n * d
	case "layered":
		if s.P == 0 {
			return n, 2 * (n - 1)
		}
	}
	// complete, and layered with p > 0: every pair of consecutive layers.
	sizes, _ := LayerSizesForRadius(s.N, s.D)
	pairs := int64(sizes[0]) // the source and layer 1
	for i := 1; i < len(sizes); i++ {
		pairs += int64(sizes[i-1]) * int64(sizes[i])
	}
	return n, 2 * pairs
}

// Canonical returns the normalized cache key: a fixed-order, fixed-format
// rendering of exactly the fields the kind consumes. Equal keys imply
// byte-identical Build output.
func (s Spec) Canonical() (string, error) {
	ns, err := s.Normalize()
	if err != nil {
		return "", err
	}
	shape, _ := shapeFor(ns.Kind)
	var b strings.Builder
	b.WriteString(ns.Kind)
	if shape.n {
		b.WriteString(",n=")
		b.WriteString(strconv.Itoa(ns.N))
	}
	if shape.d {
		b.WriteString(",d=")
		b.WriteString(strconv.Itoa(ns.D))
	}
	if shape.rows {
		b.WriteString(",rows=")
		b.WriteString(strconv.Itoa(ns.Rows))
		b.WriteString(",cols=")
		b.WriteString(strconv.Itoa(ns.Cols))
	}
	if shape.p {
		b.WriteString(",p=")
		b.WriteString(strconv.FormatFloat(ns.P, 'g', -1, 64))
	}
	if shape.seed {
		b.WriteString(",seed=")
		b.WriteString(strconv.FormatUint(ns.Seed, 10))
	}
	return b.String(), nil
}

// Build normalizes the spec and constructs the graph. Construction is a
// pure function of the canonical spec: random kinds derive every draw from
// Seed through the repository's deterministic rng, so rebuilding the same
// spec always yields the same adjacency.
func (s Spec) Build() (*Graph, error) {
	ns, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	src := rng.New(ns.Seed)
	switch ns.Kind {
	case "path":
		return Path(ns.N), nil
	case "star":
		return Star(ns.N), nil
	case "clique":
		return Clique(ns.N), nil
	case "cycle":
		return Cycle(ns.N)
	case "grid":
		return Grid(ns.Rows, ns.Cols), nil
	case "complete":
		return UniformCompleteLayered(ns.N, ns.D)
	case "starchain":
		return StarChain(ns.D, (ns.N-1)/(ns.D+1)), nil
	case "hypercube":
		return Hypercube(ns.D)
	case "layered":
		return RandomLayered(ns.N, ns.D, ns.P, src)
	case "gnp":
		return GNPConnected(ns.N, ns.P, src), nil
	case "tree":
		return RandomTree(ns.N, src), nil
	case "regular":
		return RandomRegular(ns.N, ns.D, src)
	case "disk":
		return UnitDisk(ns.N, ns.P, src), nil
	}
	// Unreachable: Normalize rejected unknown kinds above.
	return nil, fmt.Errorf("%w: unknown kind %q", ErrBadSpec, ns.Kind)
}
