package graph

// CSR is the compressed-sparse-row form of a Graph and its only adjacency
// store: per-direction flat adjacency arrays plus offset arrays, int32-typed
// so the simulator's hot loop walks contiguous, cache-dense memory.
// OutAdj[OutOff[v]:OutOff[v+1]] lists v's out-neighbors, which is exactly
// Graph.Out(v); the In pair likewise backs Graph.In. An undirected graph's
// in-rows equal its out-rows, so its In pair shares the Out arrays.
//
// A CSR is immutable: Builder.Build lays it out once and every reader
// shares it (parallel trial workers hold the same instance). Callers must
// not modify any field.
type CSR struct {
	// NumNodes is the node count (same as Graph.N).
	NumNodes int
	// OutOff has length NumNodes+1; OutAdj has one entry per arc.
	OutOff []int32
	OutAdj []int32
	// InOff/InAdj are the transposed adjacency (in-neighbors).
	InOff []int32
	InAdj []int32
}

// OutSpan returns v's out-neighbors as a slice of the flat array, capped
// so that appending to it cannot overwrite the next row.
func (c *CSR) OutSpan(v int) []int32 {
	lo, hi := c.OutOff[v], c.OutOff[v+1]
	return c.OutAdj[lo:hi:hi]
}

// InSpan returns v's in-neighbors as a slice of the flat array, capped
// like OutSpan.
func (c *CSR) InSpan(v int) []int32 {
	lo, hi := c.InOff[v], c.InOff[v+1]
	return c.InAdj[lo:hi:hi]
}

// OutDegree returns |Out(v)| without touching the adjacency array.
func (c *CSR) OutDegree(v int) int { return int(c.OutOff[v+1] - c.OutOff[v]) }

// Arcs returns the number of directed arcs.
func (c *CSR) Arcs() int { return len(c.OutAdj) }

// Compile returns the graph's CSR. It was laid out when the graph was
// built, so Compile does no work and any number of goroutines may call it
// and share the result.
func (g *Graph) Compile() *CSR { return &g.csr }
