package graph

import (
	"fmt"
	"math"

	"adhocradio/internal/rng"
)

// Path returns the undirected path 0-1-2-...-n-1 (radius n-1).
func Path(n int) *Graph {
	b := NewBuilder(n, true)
	for v := 0; v+1 < n; v++ {
		b.MustAddEdge(v, v+1)
	}
	return b.MustBuild()
}

// Star returns the undirected star with the source at the center and n-1
// leaves (radius 1).
func Star(n int) *Graph {
	b := NewBuilder(n, true)
	for v := 1; v < n; v++ {
		b.MustAddEdge(0, v)
	}
	return b.MustBuild()
}

// Clique returns the complete undirected graph on n nodes (radius 1).
func Clique(n int) *Graph {
	b := NewBuilder(n, true)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.MustAddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// CompleteLayered returns the undirected complete layered network with the
// given layer sizes (Section 4.3): layer 0 is the source alone, and the edge
// set is exactly all pairs from consecutive layers. sizes[i] is the size of
// layer i+1; the source layer is implicit. Returns an error if any size is
// non-positive.
func CompleteLayered(sizes []int) (*Graph, error) {
	n := 1
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("graph: layer %d has non-positive size %d", i+1, s)
		}
		n += s
	}
	b := NewBuilder(n, true)
	prev := []int{0}
	next := 1
	for _, s := range sizes {
		layer := make([]int, s)
		for i := range layer {
			layer[i] = next
			next++
		}
		for _, u := range prev {
			for _, v := range layer {
				b.MustAddEdge(u, v)
			}
		}
		prev = layer
	}
	return b.MustBuild(), nil
}

// LayerSizesForRadius splits n-1 non-source nodes into d layers as evenly as
// possible (every layer non-empty). Returns an error if d < 1 or d > n-1.
func LayerSizesForRadius(n, d int) ([]int, error) {
	if d < 1 || d > n-1 {
		return nil, fmt.Errorf("graph: cannot place %d nodes in %d layers", n-1, d)
	}
	sizes := make([]int, d)
	base, extra := (n-1)/d, (n-1)%d
	for i := range sizes {
		sizes[i] = base
		if i < extra {
			sizes[i]++
		}
	}
	return sizes, nil
}

// UniformCompleteLayered returns a complete layered network with n nodes and
// radius d, layers as even as possible.
func UniformCompleteLayered(n, d int) (*Graph, error) {
	sizes, err := LayerSizesForRadius(n, d)
	if err != nil {
		return nil, err
	}
	return CompleteLayered(sizes)
}

// WorstLabelCompleteLayered returns an n-node complete layered network of
// radius d whose first layer carries the HIGHEST labels. Label-scanning
// bootstraps (part 1 of Select-and-Send, phase 1 of Complete-Layered) then
// genuinely pay their Θ(n) worst case, which makes the additive n term of
// the O(n + D log n) bound measurable instead of vanishing behind
// low-labelled first layers.
func WorstLabelCompleteLayered(n, d int) (*Graph, error) {
	sizes, err := LayerSizesForRadius(n, d)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(n, true)
	prev := []int{0}
	// Layer 1 takes the top labels; later layers fill ascending from 1.
	next := 1
	for li, s := range sizes {
		layer := make([]int, s)
		if li == 0 {
			for i := range layer {
				layer[i] = n - s + i
			}
		} else {
			for i := range layer {
				layer[i] = next
				next++
			}
		}
		for _, u := range prev {
			for _, v := range layer {
				b.MustAddEdge(u, v)
			}
		}
		prev = layer
	}
	return b.MustBuild(), nil
}

// RandomLayered returns an undirected layered network with n nodes and
// radius exactly d: nodes are split into d even layers; each node in layer
// i+1 connects to a random non-empty subset of layer i (guaranteeing
// reachability), and additional intra-consecutive-layer edges appear with
// probability p. Labels are randomly permuted among non-source nodes so that
// label order carries no topological information.
func RandomLayered(n, d int, p float64, src *rng.Source) (*Graph, error) {
	sizes, err := LayerSizesForRadius(n, d)
	if err != nil {
		return nil, err
	}
	perm := permuteNonSource(n, src)
	layers := make([][]int, d+1)
	layers[0] = []int{0}
	next := 1
	for i, s := range sizes {
		layer := make([]int, s)
		for j := range layer {
			layer[j] = perm[next]
			next++
		}
		layers[i+1] = layer
	}
	b := NewBuilder(n, true)
	for i := 1; i <= d; i++ {
		prev := layers[i-1]
		for _, v := range layers[i] {
			// One guaranteed parent keeps v at distance exactly i.
			parent := prev[src.Intn(len(prev))]
			b.MustAddEdge(parent, v)
			for _, u := range prev {
				if u != parent && src.Bernoulli(p) {
					b.MustAddEdge(u, v)
				}
			}
		}
	}
	return b.MustBuild(), nil
}

// GNPConnected returns a connected undirected Erdős–Rényi-style graph: a
// uniform random spanning tree guarantees connectivity, then every other
// pair is added independently with probability p.
func GNPConnected(n int, p float64, src *rng.Source) *Graph {
	b := NewBuilder(n, true)
	addRandomTree(b, n, src)
	if p > 0 {
		tree := b.MustBuild()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if !tree.HasEdge(u, v) && src.Bernoulli(p) {
					b.MustAddEdge(u, v)
				}
			}
		}
	}
	return b.MustBuild()
}

// RandomTree returns a uniformly random labelled tree on n nodes via a
// random Prüfer sequence (n >= 1; n <= 2 returns the trivial tree/path).
func RandomTree(n int, src *rng.Source) *Graph {
	b := NewBuilder(n, true)
	addRandomTree(b, n, src)
	return b.MustBuild()
}

// addRandomTree adds the edges of RandomTree(n, src) to b.
func addRandomTree(b *Builder, n int, src *rng.Source) {
	if n <= 1 {
		return
	}
	if n == 2 {
		b.MustAddEdge(0, 1)
		return
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = src.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range prufer {
		degree[v]++
	}
	// Standard linear Prüfer decoding: ptr scans for the smallest unused
	// leaf; the "v < ptr" case reuses a node freed behind the scan pointer.
	ptr := 0
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range prufer {
		b.MustAddEdge(leaf, v)
		degree[v]--
		if degree[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for degree[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	b.MustAddEdge(leaf, n-1)
}

// Grid returns the rows×cols undirected grid with the source at a corner.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows*cols, true)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.MustAddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.MustAddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.MustBuild()
}

// UnitDisk places n nodes uniformly in the unit square and connects pairs at
// Euclidean distance <= radius: the classic ad hoc wireless deployment
// model. If the resulting graph is disconnected, each stranded component is
// attached to its nearest connected node, modelling a relay added by the
// operator; the returned graph is always broadcastable.
func UnitDisk(n int, radius float64, src *rng.Source) *Graph {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = src.Float64()
		ys[i] = src.Float64()
	}
	b := NewBuilder(n, true)
	r2 := radius * radius
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx, dy := xs[u]-xs[v], ys[u]-ys[v]
			if dx*dx+dy*dy <= r2 {
				b.MustAddEdge(u, v)
			}
		}
	}
	disk := b.MustBuild()
	dist, reachable := disk.BFSLayers()
	if reachable == n {
		return disk
	}
	// Patch connectivity: repeatedly attach the unreached node closest to
	// any reached node, the pair with the smallest (distance, reached
	// label, unreached label), and reach that node's whole radius
	// component. Patch edges only ever join reached nodes, so the radius
	// graph alone says what each patch reaches. near[v] is unreached v's
	// closest reached node (ties to the lower label), refreshed as nodes
	// are reached, which keeps the whole patch at O(n²).
	reached := make([]bool, n)
	near := make([]int, n)
	nearD := make([]float64, n)
	for v := range nearD {
		nearD[v] = math.MaxFloat64
	}
	relax := func(u int) {
		for v := 0; v < n; v++ {
			if reached[v] {
				continue
			}
			dx, dy := xs[u]-xs[v], ys[u]-ys[v]
			if d := dx*dx + dy*dy; d < nearD[v] || d == nearD[v] && u < near[v] {
				near[v], nearD[v] = u, d
			}
		}
	}
	for u := range dist {
		reached[u] = dist[u] != -1
	}
	for u := range dist {
		if reached[u] {
			relax(u)
		}
	}
	queue := make([]int, 0, n)
	for reachable < n {
		v := -1
		for w := 0; w < n; w++ {
			if !reached[w] && (v == -1 || nearD[w] < nearD[v] || nearD[w] == nearD[v] && near[w] < near[v]) {
				v = w
			}
		}
		b.MustAddEdge(near[v], v)
		reached[v] = true
		queue = append(queue[:0], v)
		for i := 0; i < len(queue); i++ {
			for _, w := range disk.Out(queue[i]) {
				if !reached[w] {
					reached[w] = true
					queue = append(queue, int(w))
				}
			}
		}
		reachable += len(queue)
		for _, u := range queue {
			relax(u)
		}
	}
	return b.MustBuild()
}

// StarChain returns the "many informed in-neighbors" stress topology used by
// the universal-sequence ablation (experiment E8): a chain of d hubs where
// hub i fans out to w leaves that all connect to hub i+1. Every hop must
// funnel w simultaneously informed nodes through a single receiver, the
// situation the last step of Stage(D,i) exists to handle. n = 1 + d*(w+1).
func StarChain(d, w int) *Graph {
	n := 1 + d*(w+1)
	b := NewBuilder(n, true)
	hub := 0
	next := 1
	for i := 0; i < d; i++ {
		leaves := make([]int, w)
		for j := range leaves {
			leaves[j] = next
			next++
		}
		newHub := next
		next++
		for _, l := range leaves {
			b.MustAddEdge(hub, l)
			b.MustAddEdge(l, newHub)
		}
		hub = newHub
	}
	return b.MustBuild()
}

// Caterpillar returns a path of length d where every spine node additionally
// has legs leaves attached (radius d+1 when legs > 0). Useful as a sparse
// topology with low-degree fronts.
func Caterpillar(d, legs int) *Graph {
	n := d + 1 + d*legs
	b := NewBuilder(n, true)
	next := d + 1
	for v := 0; v < d; v++ {
		b.MustAddEdge(v, v+1)
		for l := 0; l < legs; l++ {
			b.MustAddEdge(v+1, next)
			next++
		}
	}
	return b.MustBuild()
}

// DirectedLayered returns a *directed* layered network (arcs only forward),
// matching Section 2's directed setting: every node in layer i+1 receives an
// arc from at least one node in layer i, plus extra forward arcs with
// probability p.
func DirectedLayered(n, d int, p float64, src *rng.Source) (*Graph, error) {
	sizes, err := LayerSizesForRadius(n, d)
	if err != nil {
		return nil, err
	}
	perm := permuteNonSource(n, src)
	layers := make([][]int, d+1)
	layers[0] = []int{0}
	next := 1
	for i, s := range sizes {
		layer := make([]int, s)
		for j := range layer {
			layer[j] = perm[next]
			next++
		}
		layers[i+1] = layer
	}
	b := NewBuilder(n, false)
	for i := 1; i <= d; i++ {
		prev := layers[i-1]
		for _, v := range layers[i] {
			parent := prev[src.Intn(len(prev))]
			b.MustAddEdge(parent, v)
			for _, u := range prev {
				if u != parent && src.Bernoulli(p) {
					b.MustAddEdge(u, v)
				}
			}
		}
	}
	return b.MustBuild(), nil
}

// permuteNonSource returns a permutation of 0..n-1 fixing 0, so the source
// keeps label 0 while all other labels are shuffled.
func permuteNonSource(n int, src *rng.Source) []int {
	perm := make([]int, n)
	perm[0] = 0
	rest := make([]int, n-1)
	for i := range rest {
		rest[i] = i + 1
	}
	src.Shuffle(rest)
	copy(perm[1:], rest)
	return perm
}
