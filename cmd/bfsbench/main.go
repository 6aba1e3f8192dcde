// Command bfsbench regenerates the paper's tables and figures.
//
// Each experiment id corresponds to one exhibit of the evaluation
// section or one design ablation; harness.All is the index and -list
// prints it with what each exhibit reproduces.
//
// Usage:
//
//	bfsbench -list
//	bfsbench -exp fig4a,table1 -maxp 64
//
// Flags: -exp picks the exhibits, -maxp caps the simulated rank count.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	var (
		expFlag = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		maxP    = flag.Int("maxp", 64, "maximum simulated rank count")
		list    = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-20s %-28s %s\n", e.ID, e.Paper, e.Title)
		}
		return
	}

	cfg := harness.Config{MaxP: *maxP}
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
	}
}
