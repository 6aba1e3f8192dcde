package bfs

import (
	"strings"
	"testing"
)

func TestAlgorithmStrings(t *testing.T) {
	cases := map[string]string{
		ExpandTargeted.String():      "targeted",
		ExpandAllGather.String():     "allgather",
		ExpandTwoPhase.String():      "twophase",
		FoldTwoPhase.String():        "twophase-union",
		FoldDirect.String():          "direct",
		FoldTwoPhaseNoUnion.String(): "twophase-nounion",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if !strings.Contains(ExpandAlg(99).String(), "99") {
		t.Error("unknown expand alg should include the value")
	}
	if !strings.Contains(FoldAlg(99).String(), "99") {
		t.Error("unknown fold alg should include the value")
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions(7)
	if o.Source != 7 || o.HasTarget {
		t.Error("source/target defaults wrong")
	}
	if o.Expand != ExpandTargeted || o.Fold != FoldTwoPhase {
		t.Error("algorithm defaults changed")
	}
	if !o.SentCache || o.ChunkWords <= 0 {
		t.Error("optimization defaults changed")
	}
}

func TestUnknownAlgorithmsPanicCleanly(t *testing.T) {
	g := testGraph(t, 100, 3, 50)
	fx := build2D(t, g, 1, 2)
	opts := DefaultOptions(fx.src)
	opts.Fold = FoldAlg(99)
	if _, err := Run2D(fx.world, fx.st2, opts); err == nil {
		t.Error("unknown fold algorithm did not error")
	}
	opts = DefaultOptions(fx.src)
	opts.Expand = ExpandAlg(99)
	if _, err := Run2D(fx.world, fx.st2, opts); err == nil {
		t.Error("unknown expand algorithm did not error")
	}
}
