package main

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
)

// TestStatsGolden pins graphgen's statistics report: the generator, the
// measured degrees, the component and eccentricity search and the §3.1
// analytic table, byte for byte.
func TestStatsGolden(t *testing.T) {
	const want = `Poisson random graph: n=2000 k=4 seed=42
  edges:            3989 (avg degree 3.989, max 11)
  largest component: 1960 vertices (98.0%), eccentricity 8 from vertex 0
  diameter estimate: 5.48 (log n / log k)

§3.1 analytic expectations for P=16:
  1D fold  n·γ(n/P)·(P−1)/P:      414.8 words/processor/level
  2D expand (n/P)·γ(n/R)·(R−1):   237.1  (R=C=4)
  2D fold   (n/P)·γ(n/C)·(C−1):   237.1
  1D/2D crossover degree:          5.90
  worst case nk/P:                 500.0
`
	var out bytes.Buffer
	if err := run([]string{"-n", "2000", "-k", "4", "-seed", "42", "-p", "16"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Errorf("stats report moved:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestEdgesGolden pins the -edges dump: one "u v" line per undirected
// edge, in the generator's order.
func TestEdgesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "50", "-k", "3", "-edges"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 73 {
		t.Errorf("%d edge lines, want 73", len(lines))
	}
	want := []string{"0 8", "0 10", "0 25", "0 29", "0 30"}
	if first := lines[:min(len(lines), len(want))]; !slices.Equal(first, want) {
		t.Errorf("first edge lines %q, want %q", first, want)
	}
}

// TestBadFlag: an unknown flag is a usage error, not a report.
func TestBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bogus"}, &out); !errors.Is(err, errUsage) || out.Len() != 0 {
		t.Errorf("run(-bogus) = %v with %d bytes written, want a usage error and no output", err, out.Len())
	}
}
