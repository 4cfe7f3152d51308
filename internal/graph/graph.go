// Package graph provides the network topologies the radio model runs on.
//
// Networks are directed multigraph-free graphs over labels 0..n-1 with node 0
// as the broadcast source, matching the paper's model (Section 1.3): labels
// come from {0,...,r} with r linear in n, and the source carries label 0.
// Undirected networks are represented as symmetric directed graphs, which is
// exactly how Section 2 of the paper treats them ("undirected graphs can be
// considered as directed with every edge replaced by two directed edges").
//
// A Graph is frozen: a Builder collects its edges and Build lays them out
// once in compressed-sparse-row form (see CSR), the graph's only adjacency
// store. Nothing mutates a built graph, so any number of goroutines may
// read and simulate on it at once.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Builder collects the edges of a graph on nodes 0..n-1 and freezes them
// into a Graph. The zero value is not usable; call NewBuilder.
type Builder struct {
	n          int
	undirected bool
	// edges lists every AddEdge call in order. An undirected edge is kept
	// once here; Build writes it into both endpoints' rows.
	edges []edge
}

type edge struct{ u, v int32 }

// NewBuilder returns a builder for a graph with n nodes. undirected selects
// whether each added edge u-v yields both arcs u->v and v->u.
func NewBuilder(n int, undirected bool) *Builder {
	return &Builder{n: n, undirected: undirected}
}

// AddEdge records the arc u->v (and v->u when the graph is undirected).
// Out-of-range endpoints and self-loops are rejected here; duplicate arcs
// are rejected by Build. The radio model has no use for either, and
// silently ignoring them hides generator bugs.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	b.edges = append(b.edges, edge{int32(u), int32(v)})
	return nil
}

// MustAddEdge is AddEdge for generators whose edges are correct by
// construction; it panics on error.
func (b *Builder) MustAddEdge(u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// Build freezes the edges added so far into a Graph. Every row lists its
// arcs in insertion order: a stable counting sort groups the arcs by
// source (and, for a directed graph, a second pass by target builds the
// in-rows), and a stamp per row rejects duplicate arcs, all in O(n+m).
// An undirected graph's in-rows are its out-rows, stored once. The
// builder stays usable: later AddEdge calls and another Build extend the
// same edge list.
func (b *Builder) Build() (*Graph, error) {
	n := b.n
	m := len(b.edges)
	if b.undirected {
		m *= 2
	}
	if int64(n) >= math.MaxInt32 || int64(m) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d nodes and %d arcs exceed int32 CSR indexing", n, m)
	}
	c := CSR{NumNodes: n}
	c.OutOff, c.OutAdj = b.group(false)
	if b.undirected {
		c.InOff, c.InAdj = c.OutOff, c.OutAdj
	} else {
		c.InOff, c.InAdj = b.group(true)
	}
	stamp := make([]int32, n)
	for v := 0; v < n; v++ {
		for _, w := range c.OutSpan(v) {
			if stamp[w] == int32(v+1) {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", v, w)
			}
			stamp[w] = int32(v + 1)
		}
	}
	return freeze(c, b.undirected), nil
}

// MustBuild is Build for generators whose edges are correct by
// construction; it panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// group lays the edges out as offset and adjacency arrays with one row
// per source node (per target node when transpose is set), each row in
// edge order. An undirected edge u-v lands in row u and then in row v:
// the order in which appending both arcs of every edge would have filled
// the rows.
func (b *Builder) group(transpose bool) (off, adj []int32) {
	off = make([]int32, b.n+1)
	for _, e := range b.edges {
		if transpose {
			e.u, e.v = e.v, e.u
		}
		off[e.u+1]++
		if b.undirected {
			off[e.v+1]++
		}
	}
	for v := 0; v < b.n; v++ {
		off[v+1] += off[v]
	}
	adj = make([]int32, off[b.n])
	next := append([]int32(nil), off[:b.n]...)
	for _, e := range b.edges {
		if transpose {
			e.u, e.v = e.v, e.u
		}
		adj[next[e.u]] = e.v
		next[e.u]++
		if b.undirected {
			adj[next[e.v]] = e.u
			next[e.v]++
		}
	}
	return off, adj
}

// freeze wraps finished adjacency arrays in a Graph, building the bitmap
// rows alongside when the graph is dense enough for the bit-parallel
// tally kernel (see BitmapDense).
func freeze(c CSR, undirected bool) *Graph {
	g := &Graph{csr: c, undirected: undirected}
	if BitmapDense(c.NumNodes, c.Arcs()) {
		g.bmp = buildBitmap(&g.csr)
	}
	return g
}

// Graph is a frozen directed graph on nodes 0..N-1. Out(v) lists the nodes
// whose receivers are reachable from v's transmitter; In(v) lists the
// nodes whose transmissions can reach v. For undirected graphs the two
// coincide. Every row keeps the order its arcs were added to the Builder.
type Graph struct {
	csr        CSR
	bmp        *Bitmap // non-nil iff BitmapDense held at Build
	undirected bool
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.csr.NumNodes }

// Undirected reports whether the graph was built symmetric.
func (g *Graph) Undirected() bool { return g.undirected }

// Out returns the out-neighbors of v. The slice aliases the graph's
// adjacency and must not be modified.
func (g *Graph) Out(v int) []int32 { return g.csr.OutSpan(v) }

// In returns the in-neighbors of v. The slice aliases the graph's
// adjacency and must not be modified.
func (g *Graph) In(v int) []int32 { return g.csr.InSpan(v) }

// OutDegree returns |Out(v)|.
func (g *Graph) OutDegree(v int) int { return g.csr.OutDegree(v) }

// InDegree returns |In(v)|.
func (g *Graph) InDegree(v int) int { return int(g.csr.InOff[v+1] - g.csr.InOff[v]) }

// Edges returns the number of directed arcs (an undirected edge counts as 2).
func (g *Graph) Edges() int { return g.csr.Arcs() }

// HasEdge reports whether the arc u->v exists, scanning the shorter of
// Out(u) and In(v).
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
		return false
	}
	row, want := g.Out(u), int32(v)
	if in := g.In(v); len(in) < len(row) {
		row, want = in, int32(u)
	}
	for _, w := range row {
		if w == want {
			return true
		}
	}
	return false
}

// BFSLayers returns, for each node, its distance from the source (node 0)
// following out-arcs, and the number of reachable nodes. Unreachable nodes
// get distance -1.
func (g *Graph) BFSLayers() (dist []int, reachable int) {
	n := g.N()
	dist = make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	if n == 0 {
		return dist, 0
	}
	dist[0] = 0
	queue := make([]int, 0, n)
	queue = append(queue, 0)
	reachable = 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Out(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				reachable++
				queue = append(queue, int(v))
			}
		}
	}
	return dist, reachable
}

// Radius returns the eccentricity of the source: the largest distance from
// node 0 to any node (the paper's parameter D). It returns an error if some
// node is unreachable from the source, since broadcast is then impossible.
func (g *Graph) Radius() (int, error) {
	dist, reachable := g.BFSLayers()
	if reachable != g.N() {
		return 0, fmt.Errorf("graph: only %d of %d nodes reachable from source", reachable, g.N())
	}
	max := 0
	for _, d := range dist {
		if d > max {
			max = d
		}
	}
	return max, nil
}

// Layers groups nodes by BFS distance from the source: Layers()[j] is the
// paper's "jth layer". It returns an error if the graph is not fully
// reachable.
func (g *Graph) Layers() ([][]int, error) {
	dist, reachable := g.BFSLayers()
	if reachable != g.N() {
		return nil, fmt.Errorf("graph: only %d of %d nodes reachable from source", reachable, g.N())
	}
	maxD := 0
	for _, d := range dist {
		if d > maxD {
			maxD = d
		}
	}
	layers := make([][]int, maxD+1)
	for v, d := range dist {
		layers[d] = append(layers[d], v)
	}
	for _, l := range layers {
		sort.Ints(l)
	}
	return layers, nil
}

// ErrNotBroadcastable is returned by Validate when some node cannot receive
// the source message.
var ErrNotBroadcastable = errors.New("graph: not all nodes reachable from source")

// Validate checks that every node is reachable from the source. Build
// already guarantees the structural invariants: endpoints in range, no
// self-loops or duplicate arcs, in-rows the transpose of out-rows.
func (g *Graph) Validate() error {
	if _, reachable := g.BFSLayers(); reachable != g.N() {
		return ErrNotBroadcastable
	}
	return nil
}

// IsCompleteLayered reports whether the graph is a complete layered network
// in the paper's sense (Section 4.3): the edge set is exactly
// {{x,y} : x in L_i, y in L_{i+1}} for the BFS layers L_i. Arcs are
// duplicate-free, so it suffices that every arc joins consecutive layers
// (forward only, when directed) and that there are as many arcs as such
// pairs.
func (g *Graph) IsCompleteLayered() (bool, error) {
	layers, err := g.Layers()
	if err != nil {
		return false, err
	}
	layerOf := make([]int, g.N())
	wantArcs := 0
	for i, l := range layers {
		for _, v := range l {
			layerOf[v] = i
		}
		if i > 0 {
			wantArcs += len(layers[i-1]) * len(l)
		}
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(u) {
			if d := layerOf[v] - layerOf[u]; d != 1 && (!g.undirected || d != -1) {
				return false, nil
			}
		}
	}
	if g.undirected {
		wantArcs *= 2
	}
	return g.Edges() == wantArcs, nil
}

// Degrees returns (min, max, mean) out-degree.
func (g *Graph) Degrees() (min, max int, mean float64) {
	n := g.N()
	if n == 0 {
		return 0, 0, 0
	}
	min = n
	for v := 0; v < n; v++ {
		d := g.OutDegree(v)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return min, max, float64(g.Edges()) / float64(n)
}

// Stats describes a graph in one line for logs and experiment tables.
func (g *Graph) Stats() string {
	d, err := g.Radius()
	rad := "∞"
	if err == nil {
		rad = fmt.Sprintf("%d", d)
	}
	mn, mx, mean := g.Degrees()
	kind := "directed"
	if g.undirected {
		kind = "undirected"
	}
	return fmt.Sprintf("%s n=%d arcs=%d radius=%s deg[min=%d max=%d mean=%.1f]",
		kind, g.N(), g.Edges(), rad, mn, mx, mean)
}
