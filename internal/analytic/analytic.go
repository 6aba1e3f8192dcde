// Package analytic implements the closed-form analysis of §3.1: the
// γ(m) column-occupancy probability, the expected per-level message
// lengths for the 1D fold and the 2D expand/fold, the solver for the
// degree at which 1D and 2D partitionings exchange the same volume
// (the crossover of Figure 6b), and the expected diameter of a Poisson
// random graph.
package analytic

import (
	"fmt"
	"math"
)

// Gamma returns γ(m) = 1 − ((n−1)/n)^{mk}: the probability that a given
// column of a matrix formed by any m rows of the adjacency matrix of a
// Poisson random graph (n vertices, average degree k) is nonzero.
// γ → mk/n for large n and → 1 for large mk.
func Gamma(m, n, k float64) float64 {
	if n <= 1 || m <= 0 || k <= 0 {
		return 0
	}
	// ((n-1)/n)^{mk} = exp(mk * log(1 - 1/n)); the log1p form stays
	// accurate for the billion-vertex regimes the paper analyzes.
	return 1 - math.Exp(m*k*math.Log1p(-1/n))
}

// Expected1DFold returns the expected number of neighbor indices a
// single processor sends per level under 1D partitioning when all its
// vertices are on the frontier: n·γ(n/P)·(P−1)/P.
func Expected1DFold(n, k float64, p int) float64 {
	if p <= 1 {
		return 0
	}
	fp := float64(p)
	return n * Gamma(n/fp, n, k) * (fp - 1) / fp
}

// Expected2DExpand returns the expected expand message length per
// processor per level under 2D partitioning with targeted sends:
// (n/P)·γ(n/R)·(R−1).
func Expected2DExpand(n, k float64, r, c int) float64 {
	p := float64(r * c)
	return n / p * Gamma(n/float64(r), n, k) * float64(r-1)
}

// Expected2DFold returns the fold counterpart: (n/P)·γ(n/C)·(C−1).
func Expected2DFold(n, k float64, r, c int) float64 {
	p := float64(r * c)
	return n / p * Gamma(n/float64(c), n, k) * float64(c-1)
}

// WorstCase1DFold returns the graph-independent worst case nk/P.
func WorstCase1DFold(n, k float64, p int) float64 { return n * k / float64(p) }

// ExpectedNonEmptyLists returns the expected number of non-empty
// partial edge lists on one rank of an R x C mesh (§2.4.1): each of
// the n/C columns in the rank's block column has on average k entries
// spread over R row blocks, so it is non-empty on a given row with
// probability 1 − (1 − 1/R)^k:
//
//	E = (n/C) · (1 − (1 − 1/R)^k)
//
// As R grows this approaches (n/C)·(k/R) = nk/P — the paper's O(n/P)
// bound that justifies indexing only non-empty lists.
func ExpectedNonEmptyLists(n, k float64, r, c int) float64 {
	if r <= 0 || c <= 0 {
		return 0
	}
	if r == 1 {
		// Every column with at least one edge is non-empty; for the
		// Poisson graph that is (n/C)·(1 − e^{−k}) approximately.
		return n / float64(c) * (1 - math.Exp(-k))
	}
	return n / float64(c) * (1 - math.Pow(1-1/float64(r), k))
}

// CrossoverK solves the paper's Figure 6b equation for the average
// degree at which 1D and 2D (square mesh, R = C = √P) partitionings
// exchange equal per-level volume:
//
//	n·γ(n/P)·(P−1)/P = 2·(n/P)·γ(n/√P)·(√P−1)
//
// P must be a perfect square. The left side grows faster in k (1D
// message length saturates at higher k), so the root is unique;
// bisection over k ∈ (0, kMax] finds it.
func CrossoverK(n float64, p int, kMax float64) (float64, error) {
	sq := int(math.Round(math.Sqrt(float64(p))))
	if sq*sq != p {
		return 0, fmt.Errorf("analytic: P=%d is not a perfect square", p)
	}
	diff := func(k float64) float64 {
		lhs := Expected1DFold(n, k, p)
		rhs := 2 * n / float64(p) * Gamma(n/float64(sq), n, k) * float64(sq-1)
		return lhs - rhs
	}
	lo, hi := 1e-9, kMax
	if diff(lo) >= 0 {
		return 0, fmt.Errorf("analytic: no crossover: 1D already heavier at k→0 for n=%g P=%d", n, p)
	}
	if diff(hi) <= 0 {
		return 0, fmt.Errorf("analytic: no crossover below kMax=%g for n=%g P=%d", kMax, n, p)
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if diff(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// ExpectedDiameter returns the O(log n / log k) diameter estimate for a
// Poisson random graph (Bollobás 1981, the paper's reference [2]).
func ExpectedDiameter(n int, k float64) float64 {
	if k <= 1 || n <= 1 {
		return math.Inf(1)
	}
	return math.Log(float64(n)) / math.Log(k)
}
