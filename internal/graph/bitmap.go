package graph

import (
	"math"

	"adhocradio/internal/bitset"
)

// Bitmap is the bitmap-adjacency form of a Graph: one fixed-width row of
// uint64 words per node, bit v of row u set iff the arc u->v exists. It is
// the layout the simulator's bit-parallel tally kernel streams — one row OR
// per transmitter processes 64 receivers per ALU op — and is only worth its
// n²/8 bits of memory on dense graphs (see BitmapDense), where it costs at
// most a small constant times the CSR it is built from.
//
// Like the CSR, a Bitmap is immutable once built: Builder.Build lays one
// out alongside every dense graph. Callers must not modify the returned
// rows.
type Bitmap struct {
	// NumNodes is the node count (same as Graph.N).
	NumNodes int
	// WordsPerRow is the row stride: bitset.Words(NumNodes).
	WordsPerRow int

	rows []uint64 // NumNodes rows of WordsPerRow words each
}

// OutRow returns u's out-neighborhood as a bitplane of WordsPerRow words.
// The slice aliases the bitmap's storage and must not be modified.
func (b *Bitmap) OutRow(u int) []uint64 {
	return b.rows[u*b.WordsPerRow : (u+1)*b.WordsPerRow]
}

// BitmapDense reports whether a graph with n nodes and m directed arcs is
// dense enough for bitmap adjacency to earn its memory: mean out-degree at
// least n/32, i.e. m*32 >= n². At that floor the bitmap's n²/8 bytes are at
// most 4x the CSR's 4m bytes, and the word-parallel kernel has enough set
// bits per row to beat per-arc scalar work. Sparser graphs should stay on
// CSR adjacency alone.
func BitmapDense(n, m int) bool {
	return n > 0 && int64(m)*32 >= int64(n)*int64(n)
}

// CompileBitmap returns the bitmap-adjacency form of the graph. On a graph
// for which BitmapDense holds it is the bitmap built with the graph, shared
// by every caller. Callers gate on BitmapDense (or their own density
// policy): on a sparser graph CompileBitmap builds a fresh bitmap on every
// call, and it always costs NumNodes²/8 bytes regardless of the arc count.
func (g *Graph) CompileBitmap() *Bitmap {
	if g.bmp != nil {
		return g.bmp
	}
	return buildBitmap(&g.csr)
}

func buildBitmap(c *CSR) *Bitmap {
	n := c.NumNodes
	words := bitset.Words(n)
	if n > 0 && int64(n)*int64(words) > math.MaxInt32 {
		// >2^31 words is a >16 GiB bitmap; the density gate every caller
		// applies means Build's own int32 arc limit trips long before a
		// graph this large could be laid out here.
		panic("graph: too large for bitmap adjacency") //radiolint:ignore nopanic unreachable behind Build's int32 limit at any bitmap-worthy density; guards row index arithmetic
	}
	b := &Bitmap{
		NumNodes:    n,
		WordsPerRow: words,
		rows:        make([]uint64, n*words),
	}
	for u := 0; u < n; u++ {
		row := b.rows[u*words : (u+1)*words]
		for _, v := range c.OutSpan(u) {
			bitset.Mark(row, int(v))
		}
	}
	return b
}
