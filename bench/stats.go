package main

import (
	"math"
	"slices"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// quantile returns the q-quantile of xs by the nearest-rank rule (the
// smallest sample with at least a fraction q of the samples at or below
// it); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midpoint is the median as Python's statistics.median computes it —
// the mean of the middle two of an even count — which is what the
// acceptance rule for spreads divides by. xs must not be empty.
func midpoint(xs []float64) float64 {
	s := sorted(xs)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// tailSamples is how many samples must lie beyond a reported
// percentile for it to be more than an anecdote about the slowest few.
const tailSamples = 10

// tailQuantile returns the quantile to report when want is asked for of
// n samples: want itself when at least tailSamples samples lie beyond
// it, otherwise the highest quantile that still has that many beyond
// (never below the median). The workloads are sized so want is granted;
// the fallback keeps a short run honest instead of silent.
func tailQuantile(n int, want float64) float64 {
	if float64(n)*(1-want) >= tailSamples {
		return want
	}
	if n <= 2*tailSamples {
		return 0.5
	}
	return 1 - float64(tailSamples)/float64(n)
}

// tail returns the want-percentile of xs under the tailQuantile rule.
func tail(xs []float64, want float64) float64 {
	return quantile(xs, tailQuantile(len(xs), want))
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// which is what the acceptance rule for a benchmark's spread uses.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	m := len(s)
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles of xs as a share of
// their midpoint: the run-to-run noise a bound has to clear.
func spread(xs []float64) float64 {
	if len(xs) < 2 || midpoint(xs) == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(midpoint(xs))
}
