// Command bench is the repository's one benchmark: six named workloads
// over the simulator (package bgl) and the query service (graphd),
// measured from outside through their exported functions. Simulated
// numbers say what the modelled BlueGene/L would take and repeat
// exactly; host numbers say what the simulator and graphd cost the
// person running them, and are what changes are judged by. README.md
// has the workloads, the metrics and how they interact.
//
//	go run . [-seed 9] [-workload NAME] [-seconds 16] [-trace] [-out DIR] [-repeat N [-reseed]]
//
// With -workload it measures that workload in this process and ends
// its output with one JSON object (the contract BENCHMARK.json
// describes). Without, it runs every workload in a child process of
// its own — so GC state, peak RSS and live heap are per workload — and
// prints a summary; -repeat N does that N times and prints each
// end-to-end metric's spread against its bound — on one seed, where the
// simulated metrics must agree exactly, or with -reseed on seeds seed,
// seed+1, ..., which is how the benchmark contract measures spread.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: how long the driver has
// a run measure, and the default here.
const runSeconds = 16

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Int64("seed", 9, "the only input: graphs, sources and query lists are generated from it")
	name := fs.String("workload", "", "measure this workload in-process and end with the result as one JSON line (default: all, one child process each)")
	seconds := fs.Float64("seconds", runSeconds, "how long the timed loop measures")
	trace := fs.Bool("trace", false, "report the per-layer metrics from a traced run (-trace, or -trace 0|1)")
	out := fs.String("out", "out", "directory for traced runs' Chrome traces and the summary JSON")
	repeat := fs.Int("repeat", 1, "run the whole set this many times and print each end-to-end metric's spread against its bound")
	reseed := fs.Bool("reseed", false, "with -repeat: run set i on seed+i instead of the same seed")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace, out: *out, setupBudget: 2500 * time.Millisecond, probeSpan: 10 * time.Millisecond}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
		}
		rep, err := measure(w, cfg)
		if err != nil {
			return err
		}
		printReport(stdout, rep)
		return json.NewEncoder(stdout).Encode(rep.result())
	}
	return runAll(stdout, cfg, *repeat, *reseed)
}

// joinTraceValue rewrites "-trace 0", the way the benchmark contract
// passes the flag, to "-trace=0": the flag package never reads a
// boolean flag's value from the next argument.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// defs returns the metric table a run of this mode reports.
func defs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// metricJSON and resultJSON are the contract's last line of output.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func (r *report) result() resultJSON {
	res := resultJSON{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs(r.trace) {
		res.Metrics[d.name] = metricJSON{r.metrics[d.name].value, d.unit}
	}
	return res
}

// printReport prints every metric of the run by name, with its unit
// and sample count, and a traced run's span totals.
func printReport(w io.Writer, r *report) {
	mode := "untraced"
	if r.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): %d ops attempted, %d failed\n", r.workload, mode, r.attempted, r.failed)
	for _, d := range defs(r.trace) {
		s, ok := r.metrics[d.name]
		if !ok {
			continue // does not apply to this workload; reported as 0 in the JSON
		}
		fmt.Fprintf(w, "%-36s %16.6g %-6s n=%d\n", d.name, s.value, d.unit, s.n)
	}
	if len(r.spans) > 0 {
		fmt.Fprintf(w, "%-36s %8s %14s %14s\n", "span", "count", "total ms", "self ms")
		for _, t := range r.spans {
			fmt.Fprintf(w, "%-36s %8d %14.3f %14.3f\n", t.name, t.count, t.total.Seconds()*1e3, t.self.Seconds()*1e3)
		}
	}
}

// hostInfo is the fingerprint every summary carries: wall-clock
// numbers mean nothing without it.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func host() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// childRun is one child process's result, as the summary JSON keeps it.
type childRun struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Trace    bool       `json:"trace"`
	Result   resultJSON `json:"result"`
}

// runChild measures one workload in a fresh process of this binary,
// relays what it prints, and parses its last line.
func runChild(stdout io.Writer, w workload, cfg runConfig) (resultJSON, error) {
	var res resultJSON
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	traceArg := "-trace=0"
	if cfg.trace {
		traceArg = "-trace=1"
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), traceArg, "-out", cfg.out)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s: %w", w.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("%s: parsing the result line: %w", w.name, err)
	}
	return res, nil
}

// runAll runs every workload repeat times — untraced, and traced too
// when asked — then prints the summary and writes it to cfg.out.
func runAll(stdout io.Writer, cfg runConfig, repeat int, reseed bool) error {
	h := host()
	fmt.Fprintf(stdout, "host: %d CPUs, GOMAXPROCS %d, %s, %s\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel)
	modes := []bool{false} // traced?
	if cfg.trace {
		modes = append(modes, true)
	}
	var runs []childRun
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloads {
			c := cfg
			if reseed {
				c.seed += int64(rep)
			}
			for _, traced := range modes {
				c.trace = traced
				res, err := runChild(stdout, w, c)
				if err != nil {
					return err
				}
				runs = append(runs, childRun{w.name, c.seed, traced, res})
			}
		}
	}
	printSummary(stdout, runs)
	if cfg.out == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(map[string]any{"host": h, "runs": runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, "results.json"), append(doc, '\n'), 0o644)
}

// printSummary prints, per workload and end-to-end metric, the median
// over the untraced runs and — with more than one — their spread
// (distance between quartiles over the median, as the acceptance rule
// computes it) against the metric's bound.
func printSummary(w io.Writer, runs []childRun) {
	fmt.Fprintf(w, "\n%-20s %-16s %14s %-6s %5s %8s %6s\n", "workload", "metric", "median", "unit", "runs", "spread", "bound")
	for _, wl := range workloads {
		failed := 0
		for _, r := range runs {
			if r.Workload == wl.name {
				failed += r.Result.Failed
			}
		}
		for _, d := range endToEnd {
			var xs []float64
			for _, r := range runs {
				if r.Workload == wl.name && !r.Trace {
					xs = append(xs, r.Result.Metrics[d.name].Value)
				}
			}
			if len(xs) == 0 {
				continue
			}
			line := fmt.Sprintf("%-20s %-16s %14.6g %-6s %5d", wl.name, d.name, midpoint(xs), d.unit, len(xs))
			if len(xs) > 1 {
				sp, verdict := spread(xs), ""
				switch {
				case slices.Min(xs) == slices.Max(xs):
					verdict = "  exact"
				case sp > d.bound:
					verdict = "  WIDER THAN BOUND"
				case sp > d.bound/3:
					verdict = "  over a third of bound"
				}
				line += fmt.Sprintf(" %7.2f%% %5.0f%%%s", 100*sp, 100*d.bound, verdict)
			}
			fmt.Fprintln(w, line)
		}
		if failed > 0 {
			fmt.Fprintf(w, "%-20s FAILED OPS: %d\n", wl.name, failed)
		}
	}
}
