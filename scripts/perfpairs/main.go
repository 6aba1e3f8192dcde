// Command perfpairs summarizes the result lines scripts/perfpairs.sh
// collects: DIR/base.<i>.json and DIR/head.<i>.json, pair i run back to
// back. For each end-to-end metric of BENCHMARK.json it prints each
// side's median and quartiles, how many pairs the working tree won, and
// whether the medians differ by more than the distance between the
// base's quartiles — the two conditions a claimed gain has to meet (at
// least nine pairs in ten, and clear of the base's own spread).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// result is the last line a bench run prints.
type result struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "base", "what to call the base side in the heading")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: perfpairs [-base NAME] DIR   (run from the repository root: reads ./BENCHMARK.json)")
		os.Exit(2)
	}
	if err := summarize("BENCHMARK.json", *base, flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "perfpairs:", err)
		os.Exit(1)
	}
}

func summarize(benchmark, baseName, dir string) error {
	raw, err := os.ReadFile(benchmark)
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("%s: %w", benchmark, err)
	}
	var bases, heads []result
	for i := 1; ; i++ {
		b, errB := readResult(filepath.Join(dir, fmt.Sprintf("base.%d.json", i)))
		h, errH := readResult(filepath.Join(dir, fmt.Sprintf("head.%d.json", i)))
		if os.IsNotExist(errB) && os.IsNotExist(errH) {
			break
		}
		if errB != nil {
			return errB
		}
		if errH != nil {
			return errH
		}
		bases, heads = append(bases, b), append(heads, h)
	}
	if len(bases) == 0 {
		return fmt.Errorf("no base.<i>.json / head.<i>.json pairs in %s", dir)
	}

	fmt.Printf("%s: %d pairs, base = %s, head = working tree; median [q1, q3]\n", filepath.Base(dir), len(bases), baseName)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tbase\thead\tchange\thead ahead\tmedians vs base IQR")
	for _, m := range decl.EndToEnd {
		bs, hs := column(bases, m.Name), column(heads, m.Name)
		c := compare(bs, hs, m.Better == "higher")
		verdict := "within"
		if c.clearsIQR {
			verdict = "apart by more"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%d of %d (%d tied)\t%s\n",
			m.Name, m.Unit, spreadString(bs), spreadString(hs), c.changePct, c.won, len(bs), c.tied, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("failed ops: base %s, head %s\n", failures(bases), failures(heads))
	return nil
}

func readResult(path string) (result, error) {
	var r result
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: not a bench result line: %w", path, err)
	}
	return r, nil
}

func column(rs []result, metric string) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.Metrics[metric].Value
	}
	return xs
}

func failures(rs []result) string {
	failed, attempted := 0, 0
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return fmt.Sprintf("%d of %d", failed, attempted)
}

// comparison is one metric's verdict over the pairs.
type comparison struct {
	changePct float64 // head median over base median, minus one
	won, tied int     // pairs in which head read better / the same
	clearsIQR bool    // |difference of medians| > base q3 - q1
}

// same reports whether two readings differ by less than a part in 10^9:
// a per-op mean of exact counts (simexec_s, wire_words) comes out of a
// different number of cycles on each run, so its last bits are summation
// order, not a difference.
func same(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// compare sets base[i] against head[i], pair by pair.
func compare(base, head []float64, higherIsBetter bool) comparison {
	var c comparison
	for i := range base {
		switch {
		case same(head[i], base[i]):
			c.tied++
		case (head[i] > base[i]) == higherIsBetter:
			c.won++
		}
	}
	mb, mh := quantile(base, 0.5), quantile(head, 0.5)
	if mb != 0 {
		c.changePct = (mh/mb - 1) * 100
	}
	c.clearsIQR = !same(mh, mb) && math.Abs(mh-mb) > quantile(base, 0.75)-quantile(base, 0.25)
	return c
}

// quantile interpolates linearly between the order statistics around
// q·(n-1), as numpy and R's default do.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func spreadString(xs []float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75))
}
