package main

import "testing"

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
}

func TestCompare(t *testing.T) {
	base := []float64{10, 11, 10, 12, 10} // median 10, quartiles 10 and 11
	head := []float64{8, 11, 9, 9, 11}    // median 9
	lower := compare(base, head, false)
	if lower.won != 3 || lower.tied != 1 {
		t.Errorf("lower is better: won %d tied %d, want 3 and 1", lower.won, lower.tied)
	}
	if lower.clearsIQR {
		t.Error("medians 1 apart were said to clear a base IQR of 1")
	}
	if lower.changePct > -9.99 || lower.changePct < -10.01 {
		t.Errorf("change %v%%, want -10", lower.changePct)
	}
	noise := compare([]float64{0.016758371160714228, 0.5}, []float64{0.016758371160714196, 0.5}, false)
	if noise.won != 0 || noise.tied != 2 || noise.clearsIQR {
		t.Errorf("readings one part in 10^15 apart: won %d tied %d clears %v, want a tie", noise.won, noise.tied, noise.clearsIQR)
	}
	higher := compare(base, []float64{13, 14, 13, 15, 9}, true)
	if higher.won != 4 || higher.tied != 0 || !higher.clearsIQR {
		t.Errorf("higher is better: won %d tied %d clears %v, want 4, 0, true", higher.won, higher.tied, higher.clearsIQR)
	}
}
