package graph

import (
	"fmt"
	"slices"

	"adhocradio/internal/rng"
)

// Cycle returns the n-node cycle (n >= 3), source at node 0, radius ⌊n/2⌋.
func Cycle(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: cycle needs n >= 3, got %d", n)
	}
	b := NewBuilder(n, true)
	for v := 0; v < n; v++ {
		b.MustAddEdge(v, (v+1)%n)
	}
	return b.MustBuild(), nil
}

// Wheel returns the n-node wheel: a hub (the source) connected to an
// (n-1)-cycle. Radius 1, but high contention everywhere.
func Wheel(n int) (*Graph, error) {
	if n < 4 {
		return nil, fmt.Errorf("graph: wheel needs n >= 4, got %d", n)
	}
	b := NewBuilder(n, true)
	for v := 1; v < n; v++ {
		b.MustAddEdge(0, v)
		next := v + 1
		if next == n {
			next = 1
		}
		b.MustAddEdge(v, next)
	}
	return b.MustBuild(), nil
}

// CompleteBinaryTree returns the complete binary tree with the given number
// of levels (level 1 = the root/source alone); n = 2^levels - 1.
func CompleteBinaryTree(levels int) (*Graph, error) {
	if levels < 1 || levels > 30 {
		return nil, fmt.Errorf("graph: binary tree levels %d out of range", levels)
	}
	n := 1<<levels - 1
	b := NewBuilder(n, true)
	for v := 0; 2*v+1 < n; v++ {
		b.MustAddEdge(v, 2*v+1)
		if 2*v+2 < n {
			b.MustAddEdge(v, 2*v+2)
		}
	}
	return b.MustBuild(), nil
}

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes; node v
// and w are adjacent iff their labels differ in exactly one bit. Radius =
// dim, degree = dim: the classic low-diameter sparse benchmark.
func Hypercube(dim int) (*Graph, error) {
	if dim < 1 || dim > 24 {
		return nil, fmt.Errorf("graph: hypercube dimension %d out of range", dim)
	}
	n := 1 << dim
	b := NewBuilder(n, true)
	for v := 0; v < n; v++ {
		for bit := 0; bit < dim; bit++ {
			w := v ^ (1 << bit)
			if v < w {
				b.MustAddEdge(v, w)
			}
		}
	}
	return b.MustBuild(), nil
}

// Barbell returns two cliques of size k joined by a path of length bridge
// (bridge >= 1 edges): a bottleneck topology where a single relay chain
// throttles the broadcast. n = 2k + bridge - 1.
func Barbell(k, bridge int) (*Graph, error) {
	if k < 2 || bridge < 1 {
		return nil, fmt.Errorf("graph: barbell needs k >= 2, bridge >= 1 (got %d, %d)", k, bridge)
	}
	n := 2*k + bridge - 1
	b := NewBuilder(n, true)
	// Left clique on 0..k-1 (source inside).
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			b.MustAddEdge(u, v)
		}
	}
	// Path from node k-1 through k..k+bridge-2 to the right clique's first
	// node k+bridge-1.
	prev := k - 1
	for v := k; v <= k+bridge-1; v++ {
		b.MustAddEdge(prev, v)
		prev = v
	}
	// Right clique on k+bridge-1 .. n-1.
	for u := k + bridge - 1; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.MustAddEdge(u, v)
		}
	}
	return b.MustBuild(), nil
}

// RandomRegular returns a connected random d-regular graph on n nodes
// (n·d must be even, d < n). It pairs stubs as in the configuration model
// and repairs self-loops and multi-edges with degree-preserving edge swaps,
// retrying the whole construction if repair stalls or the result is
// disconnected. For d >= 3 almost every repaired sample is connected.
func RandomRegular(n, d int, src *rng.Source) (*Graph, error) {
	if d < 1 || d >= n {
		return nil, fmt.Errorf("graph: degree %d out of range for n=%d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: n·d = %d·%d is odd", n, d)
	}
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g, ok := tryConfigurationModel(n, d, src)
		if !ok {
			continue
		}
		if _, reachable := g.BFSLayers(); reachable == n {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: no connected simple %d-regular graph found after %d attempts", d, maxAttempts)
}

// tryConfigurationModel pairs n·d stubs uniformly, then repairs invalid
// pairs (self-loops, duplicates) by swapping with random valid pairs. The
// repair reads and edits adjacency as it goes, so it works on plain
// neighbor lists (removal swaps with the last entry), and the graph is
// laid out from the finished lists.
func tryConfigurationModel(n, d int, src *rng.Source) (*Graph, bool) {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	src.Shuffle(stubs)
	pairs := make([][2]int, 0, len(stubs)/2)
	for i := 0; i < len(stubs); i += 2 {
		pairs = append(pairs, [2]int{stubs[i], stubs[i+1]})
	}
	adj := make([][]int, n)
	link := func(u, v int) {
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	bad := pairs[:0:0]
	for _, pr := range pairs {
		if pr[0] != pr[1] && !slices.Contains(adj[pr[0]], pr[1]) {
			link(pr[0], pr[1])
		} else {
			bad = append(bad, pr)
		}
	}
	// Repair: swap one endpoint of a bad pair with an endpoint of a random
	// existing edge so both resulting edges are valid.
	budget := 100 * (len(bad) + 1)
	for len(bad) > 0 && budget > 0 {
		budget--
		pr := bad[len(bad)-1]
		a, b := pr[0], pr[1]
		// Pick a random existing edge (u, w).
		u := src.Intn(n)
		if len(adj[u]) == 0 {
			continue
		}
		w := adj[u][src.Intn(len(adj[u]))]
		// Proposed replacement: (a, u) and (b, w).
		if a == u || b == w || slices.Contains(adj[a], u) || slices.Contains(adj[b], w) {
			continue
		}
		adj[u] = removeValue(adj[u], w)
		adj[w] = removeValue(adj[w], u)
		link(a, u)
		link(b, w)
		bad = bad[:len(bad)-1]
	}
	if len(bad) > 0 {
		return nil, false
	}
	return undirectedFromRows(adj), true
}

// removeValue deletes v from xs by moving the last entry into its place.
func removeValue(xs []int, v int) []int {
	i := slices.Index(xs, v)
	xs[i] = xs[len(xs)-1]
	return xs[:len(xs)-1]
}

// undirectedFromRows lays out the undirected graph whose neighbor lists,
// in order, are rows; rows must be symmetric and duplicate-free.
func undirectedFromRows(rows [][]int) *Graph {
	c := CSR{NumNodes: len(rows), OutOff: make([]int32, 1, len(rows)+1)}
	for _, row := range rows {
		for _, v := range row {
			c.OutAdj = append(c.OutAdj, int32(v))
		}
		c.OutOff = append(c.OutOff, int32(len(c.OutAdj)))
	}
	c.InOff, c.InAdj = c.OutOff, c.OutAdj
	return freeze(c, true)
}
