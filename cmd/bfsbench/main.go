// Command bfsbench regenerates the paper's tables and figures.
//
// Each experiment id corresponds to one exhibit of the evaluation
// section or one design ablation; harness.All is the index and -list
// prints it with what each exhibit reproduces.
//
// Usage:
//
//	bfsbench -list
//	bfsbench -exp fig4a,table1 -scale 1 -maxp 64 -searches 3
//	bfsbench -exp all -csv out/
//
// Flags: -exp, -scale, -maxp, -seed, -searches size the run; -csv also
// writes each table as a file; -cpuprofile / -memprofile profile the
// host process.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scale    = flag.Float64("scale", 1, "per-rank problem-size multiplier")
		maxP     = flag.Int("maxp", 64, "maximum simulated rank count")
		seed     = flag.Int64("seed", 1, "workload seed")
		searches = flag.Int("searches", 3, "s->t searches averaged per data point")
		csvDir   = flag.String("csv", "", "also write each table as CSV into this directory")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the host process to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f.Close()
		}()
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-20s %-28s %s\n", e.ID, e.Paper, e.Title)
		}
		return
	}

	cfg := harness.Config{Scale: *scale, MaxP: *maxP, Seed: *seed, Searches: *searches}
	var exps []harness.Experiment
	if *expFlag == "all" {
		exps = harness.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, err := harness.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	for _, e := range exps {
		start := time.Now()
		tbl, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("(%s: %s, ran in %v)\n\n", e.ID, e.Paper, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f, err := os.Create(filepath.Join(*csvDir, e.ID+".csv"))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := tbl.WriteCSV(f); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}
