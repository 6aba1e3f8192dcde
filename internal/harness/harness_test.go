package harness

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// tinyConfig keeps experiment tests fast: small per-rank sizes and few
// ranks.
func tinyConfig() Config {
	return Config{Scale: 0.1, MaxP: 16, Seed: 1, Searches: 1}
}

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(tinyConfig())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: no rows", e.ID)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("%s: row width %d != %d columns", e.ID, len(row), len(tbl.Columns))
				}
			}
			var buf bytes.Buffer
			if err := tbl.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), tbl.Columns[0]) {
				t.Fatalf("%s: render missing header", e.ID)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig4a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "t", Columns: []string{"a", "bb"}}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("x", "y")
	tbl.Note("hello %d", 7)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== t ==", "a", "bb", "2.5", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 1 || c.MaxP != 256 || c.Seed != 1 || c.Searches != 3 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if (Config{Scale: 0.001}).scaleCount(1000) != 64 {
		t.Error("scaleCount floor not applied")
	}
}

func TestSquareMeshAndWeakPoints(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 4: {2, 2}, 16: {4, 4}, 12: {3, 4}, 7: {1, 7}}
	for p, want := range cases {
		r, c := squareMesh(p)
		if r != want[0] || c != want[1] {
			t.Errorf("squareMesh(%d) = %dx%d, want %dx%d", p, r, c, want[0], want[1])
		}
	}
	pts := weakPoints(256)
	if len(pts) != 5 || pts[0] != 1 || pts[4] != 256 {
		t.Errorf("weakPoints(256) = %v", pts)
	}
}

// TestSmallMaxP pins the exhibits below P = 4: Figure 6 runs on the
// largest of its square candidates that fits under MaxP — here one
// rank, where Figure 6b has no crossover to solve for and says so —
// and memscale, which needs a shared block column, says in a note why
// it has no rows rather than printing an empty table.
func TestSmallMaxP(t *testing.T) {
	cfg := Config{Scale: 0.1, MaxP: 2, Seed: 1, Searches: 1}
	tbl, err := RunFig6a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("fig6a: no rows")
	}
	if want := "P=1 (2D as 1x1, 1D as 1x1)"; !strings.Contains(tbl.Notes[0], want) {
		t.Errorf("fig6a at MaxP=2: note %q does not read %q", tbl.Notes[0], want)
	}
	tbl, err = RunFig6b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 0 || len(tbl.Notes) != 1 || !strings.Contains(tbl.Notes[0], "no crossover") {
		t.Errorf("fig6b at MaxP=2: %d rows, notes %q; want none and the no-crossover note", len(tbl.Rows), tbl.Notes)
	}
	tbl, err = RunMemScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 0 {
		t.Errorf("memscale at MaxP=2: %d rows, want none", len(tbl.Rows))
	}
	if want := "no P ≥ 4 fits under MaxP=2"; len(tbl.Notes) == 0 || !strings.Contains(tbl.Notes[0], want) {
		t.Errorf("memscale at MaxP=2: notes %q do not open with %q", tbl.Notes, want)
	}
}

// TestFig4aShape checks the headline claims at tiny scale: comm time is
// far below exec time, and exec time grows with P (the log P trend).
func TestFig4aShape(t *testing.T) {
	tbl, err := RunFig4a(Config{Scale: 0.2, MaxP: 16, Seed: 1, Searches: 2})
	if err != nil {
		t.Fatal(err)
	}
	var k10Exec []float64
	for _, row := range tbl.Rows {
		if strings.Contains(row[0], "k=10") {
			var e, c float64
			if _, err := fmt.Sscan(row[5], &e); err != nil {
				t.Fatal(err)
			}
			if _, err := fmt.Sscan(row[6], &c); err != nil {
				t.Fatal(err)
			}
			if c >= e {
				t.Errorf("P=%s: comm %g not below exec %g", row[1], c, e)
			}
			k10Exec = append(k10Exec, e)
		}
	}
	if len(k10Exec) < 3 {
		t.Fatalf("too few k=10 points: %d", len(k10Exec))
	}
	if k10Exec[len(k10Exec)-1] <= k10Exec[0] {
		t.Errorf("weak-scaling exec time did not grow: %v", k10Exec)
	}
}

// TestFig7Redundancy checks the k=100 series eliminates more
// duplicates than k=10 (the Fig. 7 ordering).
func TestFig7Redundancy(t *testing.T) {
	tbl, err := RunFig7(Config{Scale: 0.3, MaxP: 16, Seed: 1, Searches: 1})
	if err != nil {
		t.Fatal(err)
	}
	byK := map[string]float64{}
	for _, row := range tbl.Rows {
		var r float64
		if _, err := fmt.Sscan(row[3], &r); err != nil {
			t.Fatal(err)
		}
		byK[row[0]] = r
	}
	var k10, k100 float64
	for label, r := range byK {
		if strings.Contains(label, "k=100") {
			k100 = r
		} else if strings.Contains(label, "k=10,") || strings.HasSuffix(label, "k=10") {
			k10 = r
		}
	}
	if k100 <= k10 {
		t.Errorf("redundancy ordering wrong: k=100 %g <= k=10 %g", k100, k10)
	}
}

// TestTable1TopologiesDistinct guards against the meshes degenerating:
// a square P would otherwise produce the same 2D mesh twice, and below
// P = 8 the r x 2r split is a 1D mesh. Each graph's rows name distinct
// meshes, and from P = 4 one of them is a true 2D mesh.
func TestTable1TopologiesDistinct(t *testing.T) {
	for _, tc := range []struct {
		maxP   int
		meshes []string
	}{
		{2, []string{"1x2", "2x1"}},
		{4, []string{"2x2", "4x1", "1x4"}},
		{16, []string{"2x8", "8x2", "16x1", "1x16"}},
	} {
		tbl, err := RunTable1(Config{Scale: 0.05, MaxP: tc.maxP, Seed: 1, Searches: 1})
		if err != nil {
			t.Fatal(err)
		}
		byGraph := map[string][]string{}
		var graphs []string
		for _, row := range tbl.Rows {
			if byGraph[row[0]] == nil {
				graphs = append(graphs, row[0])
			}
			byGraph[row[0]] = append(byGraph[row[0]], row[1])
		}
		for _, g := range graphs {
			if got := byGraph[g]; !slices.Equal(got, tc.meshes) {
				t.Errorf("MaxP %d, graph %s: topologies %v, want %v", tc.maxP, g, got, tc.meshes)
			}
		}
		if len(graphs) != len(table1Graphs) {
			t.Errorf("MaxP %d: rows for %d graphs, want %d", tc.maxP, len(graphs), len(table1Graphs))
		}
	}
}

// TestAblationPartitionCoversAllPartitionings checks the Table 1
// head-to-head exhibits every public partitioning with nonzero moved
// words.
func TestAblationPartitionCoversAllPartitionings(t *testing.T) {
	tbl, err := RunAblationPartition(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, row := range tbl.Rows {
		part := row[1]
		seen[part] = true
		var total float64
		if _, err := fmt.Sscan(row[5], &total); err != nil || total <= 0 {
			t.Fatalf("%s: total words cell %q not positive (%v)", part, row[5], err)
		}
	}
	for _, want := range []string{"2d", "1drow", "1dcol"} {
		if !seen[want] {
			t.Errorf("exhibit missing partitioning %s", want)
		}
	}
}

// BenchmarkExhibit regenerates every exhibit of All — the paper's
// figures and table, the memory-scalability exhibit and the design
// ablations — one sub-benchmark per experiment id, at a scale that
// keeps each under a few seconds per iteration on one core.
// `make bench-smoke` runs it once: every exhibit still runs to
// completion.
func BenchmarkExhibit(b *testing.B) {
	cfg := Config{Scale: 0.25, MaxP: 16, Seed: 1, Searches: 1}
	for _, e := range All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
