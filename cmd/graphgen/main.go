// Command graphgen generates a Poisson random graph and reports its
// statistics: measured average degree, degree histogram summary,
// connectivity, eccentricity from a sample vertex, and the analytic
// expectations from §3.1 (γ values and expected message lengths for
// chosen partitionings).
//
// Usage:
//
//	graphgen -n 100000 -k 10 -seed 42 -p 64
//	graphgen -n 1000 -k 4 -edges        # dump the edge list
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/analytic"
	"repro/internal/graph"
)

// errUsage marks a command-line error the flag package has already
// reported on stderr.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the command: it parses args and writes the graph's statistics,
// or with -edges its edge list, to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	var (
		n     = fs.Int("n", 100000, "vertices")
		k     = fs.Float64("k", 10, "expected average degree")
		seed  = fs.Int64("seed", 42, "generator seed")
		p     = fs.Int("p", 64, "processor count for the analytic table")
		edges = fs.Bool("edges", false, "dump edge list to stdout instead of stats")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	params := graph.Params{N: *n, K: *k, Seed: *seed}
	if *edges {
		bw := bufio.NewWriter(w)
		if err := params.VisitEdges(func(u, v graph.Vertex) {
			fmt.Fprintf(bw, "%d %d\n", u, v)
		}); err != nil {
			return err
		}
		return bw.Flush()
	}

	g, err := graph.Generate(params)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Poisson random graph: n=%d k=%g seed=%d\n", *n, *k, *seed)
	fmt.Fprintf(w, "  edges:            %d (avg degree %.3f, max %d)\n",
		g.NumEdges(), g.AvgDegree(), g.MaxDegree())
	src := graph.LargestComponentVertex(g)
	ecc, reached := graph.Eccentricity(g, src)
	fmt.Fprintf(w, "  largest component: %d vertices (%.1f%%), eccentricity %d from vertex %d\n",
		reached, 100*float64(reached)/float64(g.N), ecc, src)
	fmt.Fprintf(w, "  diameter estimate: %.2f (log n / log k)\n", analytic.ExpectedDiameter(g.N, *k))

	fmt.Fprintf(w, "\n§3.1 analytic expectations for P=%d:\n", *p)
	nf := float64(*n)
	fmt.Fprintf(w, "  1D fold  n·γ(n/P)·(P−1)/P:      %.1f words/processor/level\n",
		analytic.Expected1DFold(nf, *k, *p))
	sq := int(math.Round(math.Sqrt(float64(*p))))
	if sq*sq == *p {
		fmt.Fprintf(w, "  2D expand (n/P)·γ(n/R)·(R−1):   %.1f  (R=C=%d)\n",
			analytic.Expected2DExpand(nf, *k, sq, sq), sq)
		fmt.Fprintf(w, "  2D fold   (n/P)·γ(n/C)·(C−1):   %.1f\n",
			analytic.Expected2DFold(nf, *k, sq, sq))
		if cross, err := analytic.CrossoverK(nf, *p, nf); err == nil {
			fmt.Fprintf(w, "  1D/2D crossover degree:          %.2f\n", cross)
		}
	}
	fmt.Fprintf(w, "  worst case nk/P:                 %.1f\n", analytic.WorstCase1DFold(nf, *k, *p))
	return nil
}
