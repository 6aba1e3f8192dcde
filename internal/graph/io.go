package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph as a plain-text edge list: one
// "u v" pair per line ("u v w" for weighted graphs), each undirected
// edge once (u < v), preceded by a header line "# n <vertices>" (and
// "# weighted" for weighted graphs). The format round-trips through
// ReadEdgeList and matches cmd/graphgen's -edges output (which has no
// header; ReadEdgeList then infers n).
func WriteEdgeList(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# n %d\n", g.N); err != nil {
		return err
	}
	if g.Weighted() {
		if _, err := fmt.Fprintln(bw, "# weighted"); err != nil {
			return err
		}
	}
	for v := 0; v < g.N; v++ {
		for i := g.Off[v]; i < g.Off[v+1]; i++ {
			u := g.Adj[i]
			if Vertex(v) >= u {
				continue
			}
			var err error
			if g.Weighted() {
				_, err = fmt.Fprintf(bw, "%d %d %d\n", v, u, g.W[i])
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", v, u)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses a plain-text edge list: one "u v" pair (or
// "u v w" weighted triple) per line, blank lines ignored, lines
// starting with '#' treated as comments except the optional "# n
// <count>" and "# weighted" headers. Every line must have the same
// arity — an edge list cannot be half-weighted, and a stray third
// column is a weight, never silently dropped. Weights must be integers
// in [1, 2^32); malformed or zero weights are rejected. Without a
// header, n is max id + 1. Self-loops are rejected; duplicate edges
// are merged, but a duplicate that disagrees on weight is rejected.
func ReadEdgeList(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges [][2]Vertex
	var weights []uint32
	n := 0
	weighted := false // saw a "# weighted" header or a 3-column line
	sawColumns := 0   // arity of the first edge line (0 until one is seen)
	seen := map[[2]Vertex]int{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) == 3 && fields[1] == "n" {
				v, err := strconv.Atoi(fields[2])
				if err != nil || v <= 0 {
					return nil, fmt.Errorf("graph: line %d: bad vertex count %q", lineNo, fields[2])
				}
				n = v
			}
			if len(fields) == 2 && fields[1] == "weighted" {
				if sawColumns == 2 {
					return nil, fmt.Errorf("graph: line %d: '# weighted' header after unweighted edge lines", lineNo)
				}
				weighted = true
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: expected 'u v' or 'u v w', got %q", lineNo, line)
		}
		if sawColumns == 0 {
			sawColumns = len(fields)
			if sawColumns == 3 {
				weighted = true
			} else if weighted {
				return nil, fmt.Errorf("graph: line %d: weighted edge list needs 'u v w', got %q", lineNo, line)
			}
		} else if len(fields) != sawColumns {
			return nil, fmt.Errorf("graph: line %d: mixed %d- and %d-column edge lines", lineNo, sawColumns, len(fields))
		}
		u64, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		v64, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		wt := uint32(1)
		if len(fields) == 3 {
			w64, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge weight %q: %v", lineNo, fields[2], err)
			}
			if w64 == 0 {
				return nil, fmt.Errorf("graph: line %d: edge weight must be positive", lineNo)
			}
			wt = uint32(w64)
		}
		u, v := Vertex(u64), Vertex(v64)
		if u == v {
			return nil, fmt.Errorf("graph: line %d: self-loop at %d", lineNo, u)
		}
		if u > v {
			u, v = v, u
		}
		key := [2]Vertex{u, v}
		if idx, ok := seen[key]; ok {
			if weighted && weights[idx] != wt {
				return nil, fmt.Errorf("graph: line %d: edge (%d,%d) repeated with weight %d, previously %d",
					lineNo, u, v, wt, weights[idx])
			}
			continue
		}
		seen[key] = len(edges)
		edges = append(edges, key)
		weights = append(weights, wt)
		if int(v)+1 > n {
			n = int(v) + 1
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("graph: empty edge list and no vertex-count header")
	}
	if weighted {
		return FromWeightedEdges(n, edges, weights)
	}
	return FromEdges(n, edges)
}
