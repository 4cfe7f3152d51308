package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the graph in Graphviz DOT format. The source is drawn as
// a doubled circle. Undirected graphs emit each edge once.
func (g *Graph) WriteDOT(w io.Writer, name string) error {
	if name == "" {
		name = "radio"
	}
	kind, sep := "digraph", "->"
	if g.undirected {
		kind, sep = "graph", "--"
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s %s {\n", kind, name)
	fmt.Fprintf(bw, "  0 [shape=doublecircle];\n")
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(u) {
			if g.undirected && int(v) < u {
				continue
			}
			fmt.Fprintf(bw, "  %d %s %d;\n", u, sep, v)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// WriteEdgeList writes a plain text format readable by ReadEdgeList:
//
//	# comments allowed
//	nodes <n> <undirected|directed>
//	<u> <v>     (one edge per line; undirected edges listed once)
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	kind := "directed"
	if g.undirected {
		kind = "undirected"
	}
	fmt.Fprintf(bw, "nodes %d %s\n", g.N(), kind)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(u) {
			if g.undirected && int(v) < u {
				continue
			}
			fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the WriteEdgeList format. Blank lines and lines
// starting with '#' are ignored.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var b *Builder
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if b == nil {
			if len(fields) != 3 || fields[0] != "nodes" {
				return nil, fmt.Errorf("graph: line %d: expected \"nodes <n> <kind>\", got %q", lineNo, line)
			}
			var n int
			if _, err := fmt.Sscanf(fields[1], "%d", &n); err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", lineNo, fields[1])
			}
			switch fields[2] {
			case "undirected":
				b = NewBuilder(n, true)
			case "directed":
				b = NewBuilder(n, false)
			default:
				return nil, fmt.Errorf("graph: line %d: bad kind %q", lineNo, fields[2])
			}
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: expected \"<u> <v>\", got %q", lineNo, line)
		}
		var u, v int
		if _, err := fmt.Sscanf(line, "%d %d", &u, &v); err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		if err := b.AddEdge(u, v); err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	return b.Build()
}
