package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// ledgerPath is the one committed record of simulated numbers: one line
// per bfsrun configuration — the flag string, simexec_s, simcomm_s and
// total words at full precision, and the SHA-256 of the -json document
// with the Wall lines dropped — tab-separated, in [matrix] blocks (the
// configuration space at n = 12,000 on a 2x3 mesh, then the 1x6 twin
// pairs) and a [headline] block (the flagship runs at n = 100,000 on
// 4x4, skipped under -short).
const ledgerPath = "testdata/ledger.tsv"

// ledgerCols names the columns after the flag string.
var ledgerCols = [...]string{"simexec_s", "simcomm_s", "words", "sha256"}

var update = flag.Bool("update", false, "rewrite "+ledgerPath+" from this tree's bfsrun -json output")

// ledgerLine is one configuration line of the ledger.
type ledgerLine struct {
	at    int    // index into the file's lines
	block string // "matrix" or "headline"
	flags string
	cols  [len(ledgerCols)]string
}

// command is the line as a reader runs it.
func (l ledgerLine) command() string { return "go run ./cmd/bfsrun " + l.flags + " -json" }

// check compares a fresh measurement with the recorded line; the error
// carries the runnable command and every column that moved.
func (l ledgerLine) check(got [len(ledgerCols)]string) error {
	var moved []string
	for i, name := range ledgerCols {
		if got[i] != l.cols[i] {
			moved = append(moved, fmt.Sprintf("%s: ledger %s, this tree %s", name, l.cols[i], got[i]))
		}
	}
	if moved == nil {
		return nil
	}
	return fmt.Errorf("%s:%d moved:\n  %s\n  %s\n(a number that was meant to move: go test ./cmd/bfsrun -run TestSimLedger -update, and quote the moved rows in the PR)",
		ledgerPath, l.at+1, l.command(), strings.Join(moved, "\n  "))
}

// readLedger returns the file's lines verbatim and its configuration
// lines parsed. A configuration line may carry the flag string alone
// (a configuration added by hand, waiting for -update).
func readLedger(t *testing.T) ([]string, []ledgerLine) {
	t.Helper()
	data, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	raw := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var lines []ledgerLine
	block := ""
	for i, s := range raw {
		switch {
		case s == "" || strings.HasPrefix(s, "#"):
		case s == "[matrix]" || s == "[headline]":
			block = strings.Trim(s, "[]")
		case block == "":
			t.Fatalf("%s:%d: configuration before a [matrix] or [headline] header", ledgerPath, i+1)
		default:
			l := ledgerLine{at: i, block: block}
			cells := strings.Split(s, "\t")
			if len(cells) != 1 && len(cells) != 1+len(ledgerCols) {
				t.Fatalf("%s:%d: %d tab-separated cells, want flags %s", ledgerPath, i+1, len(cells), strings.Join(ledgerCols[:], " "))
			}
			l.flags = cells[0]
			copy(l.cols[:], cells[1:])
			lines = append(lines, l)
		}
	}
	return raw, lines
}

// measure runs one configuration in-process and returns its ledger
// columns. The run must have passed the serial oracle. The hash skips
// the document's "Wall": lines and any line holding one of skip.
func measure(flags string, skip ...string) (cols [len(ledgerCols)]string, err error) {
	var stdout, stderr bytes.Buffer
	if err := run(append(strings.Fields(flags), "-json"), &stdout, &stderr); err != nil {
		return cols, fmt.Errorf("%v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "verified") {
		return cols, fmt.Errorf("run was not checked against the serial oracle; stderr: %q", stderr.String())
	}
	var doc struct {
		SimTime, SimComm                 json.Number
		TotalExpandWords, TotalFoldWords int64
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		return cols, err
	}
	// Wall is the host's time, the only field allowed to differ.
	hash := sha256.New()
	skip = append(skip, `"Wall":`)
	for _, line := range bytes.SplitAfter(stdout.Bytes(), []byte("\n")) {
		if !slices.ContainsFunc(skip, func(s string) bool { return bytes.Contains(line, []byte(s)) }) {
			hash.Write(line)
		}
	}
	return [len(ledgerCols)]string{
		doc.SimTime.String(), doc.SimComm.String(),
		strconv.FormatInt(doc.TotalExpandWords+doc.TotalFoldWords, 10),
		fmt.Sprintf("%x", hash.Sum(nil)),
	}, nil
}

// TestSimLedger is the simulated-drift gate: every ledger line is run
// in-process, oracle-verified, and compared with its recorded columns.
// The cost model is deterministic, so any difference — a word, the last
// bit of a simulated clock, a field of the -json document — is a
// behaviour change and fails with the runnable command and the column
// that moved. With -update the measured columns are written back, and
// every line that moved is logged — its flags, old -> new simexec,
// simcomm and words, and the relative simexec change — with a count and
// the largest relative change, so a re-record can be quoted as it is.
func TestSimLedger(t *testing.T) {
	raw, lines := readLedger(t)
	got := make([][len(ledgerCols)]string, len(lines))
	for _, block := range []string{"matrix", "headline"} {
		// The group returns when its parallel lines have all finished.
		t.Run(block, func(t *testing.T) {
			if block == "headline" && testing.Short() {
				t.Skip("the n = 100,000 block is skipped under -short")
			}
			for i, l := range lines {
				if l.block != block {
					continue
				}
				t.Run(l.flags, func(t *testing.T) {
					t.Parallel()
					cols, err := measure(l.flags)
					if err != nil {
						t.Fatalf("%s failed: %v", l.command(), err)
					}
					got[i] = cols
					if *update {
						return
					}
					if err := l.check(cols); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
	if !*update || t.Failed() {
		return
	}
	moved, largest := 0, 0.0
	for i, l := range lines {
		if got[i][0] == "" { // a block -short skipped
			continue
		}
		if got[i] != l.cols {
			moved++
			rel := relChange(l.cols[0], got[i][0])
			largest = max(largest, math.Abs(rel))
			t.Logf("re-recorded %s\n  simexec %s -> %s\n  simcomm %s -> %s\n  words   %s -> %s\n  simexec %+.3g relative",
				l.flags, l.cols[0], got[i][0], l.cols[1], got[i][1], l.cols[2], got[i][2], rel)
		}
		raw[l.at] = l.flags + "\t" + strings.Join(got[i][:], "\t")
	}
	t.Logf("%d of %d lines re-recorded; the largest relative simexec change is %.3g", moved, len(lines), largest)
	if err := os.WriteFile(ledgerPath, []byte(strings.Join(raw, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// relChange is the relative change from the recorded to the measured
// value of a column; a line added by hand has no recorded value and
// reads 0.
func relChange(old, now string) float64 {
	o, err := strconv.ParseFloat(old, 64)
	if err != nil || o == 0 {
		return 0
	}
	n, _ := strconv.ParseFloat(now, 64)
	return (n - o) / o
}

// TestSimLedgerCatchesOneDigit is the gate's self-check: a ledger line
// with one digit changed must fail the comparison and name that line.
func TestSimLedgerCatchesOneDigit(t *testing.T) {
	_, lines := readLedger(t)
	l := lines[0]
	got, err := measure(l.flags)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.check(got); err != nil {
		t.Fatalf("the untouched line does not match: %v", err)
	}
	for col := range ledgerCols {
		bad := l
		last := bad.cols[col][len(bad.cols[col])-1]
		bad.cols[col] = bad.cols[col][:len(bad.cols[col])-1] + string('0'+(last-'0'+1)%10)
		err := bad.check(got)
		if err == nil {
			t.Fatalf("%s with its last digit changed passed the comparison", ledgerCols[col])
		}
		for _, want := range []string{l.command(), ledgerCols[col], fmt.Sprintf("%s:%d", ledgerPath, l.at+1)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("failure for a changed %s does not name %q:\n%v", ledgerCols[col], want, err)
			}
		}
	}
}

// TestRestoreMatchesLedger is the kill/restore gate of the command
// line: a BFS, a Δ-stepping and a multi-source ledger line are each run
// with -checkpoint -kill-at 2, then resumed from the snapshot file with
// -restore, and the resumed run — oracle-verified — must reproduce that
// line's every column, the hash of its -json document included.
func TestRestoreMatchesLedger(t *testing.T) {
	_, lines := readLedger(t)
	for _, flags := range []string{
		"-n 12000 -k 8 -seed 7 -r 2 -c 3 -part 2d -wire sparse -async=true -direction dirop",
		"-n 12000 -k 8 -seed 7 -r 2 -c 3 -algo sssp -part 2d -wire sparse -async=true -delta 25",
		"-n 12000 -k 8 -seed 7 -r 2 -c 3 -sources 3,99,1024,2047,11600 -part 2d -wire sparse -async=true",
	} {
		i := slices.IndexFunc(lines, func(l ledgerLine) bool { return l.flags == flags })
		if i < 0 {
			t.Fatalf("no ledger line %q", flags)
		}
		t.Run(flags, func(t *testing.T) {
			t.Parallel()
			path := t.TempDir() + "/run.ckpt"
			var stdout, stderr bytes.Buffer
			if err := run(strings.Fields(flags+" -checkpoint "+path+" -kill-at 2"), &stdout, &stderr); err != nil {
				t.Fatalf("checkpoint run: %v\n%s", err, stderr.String())
			}
			cols, err := measure(flags + " -restore " + path)
			if err != nil {
				t.Fatalf("restore run: %v", err)
			}
			if err := lines[i].check(cols); err != nil {
				t.Errorf("the restored run does not reproduce the ledger line: %v", err)
			}
		})
	}
}

// TestLedgerClaims asserts, over the recorded headline rows, the
// acceptance claims the per-PR baseline documents carried as booleans:
// some interior Δ beats both degenerate extremes, the overlapped
// schedule is worth ≥ 1.3x on the 1D Δ-stepping flagship, and a batched
// multi-source sweep costs less per query, in words and in simulated
// seconds, than a single-source traversal — the more lanes the less —
// and Part1DCol is the 2D engine on a 1 x P mesh: each matrix line with
// -r 1 -c 6 -part 1dcol records what its -part 2d twin does.
// (That every lane equals its own serial BFS is TestSimLedger's oracle
// check; a 64-lane batch against its 64 independent runs is
// internal/bfs TestMultiRunFullBatch.)
func TestLedgerClaims(t *testing.T) {
	_, lines := readLedger(t)
	const headline = "-n 100000 -k 10 -seed 9 -r 4 -c 4 "
	row := func(flags string) (simexec, words float64) {
		t.Helper()
		for _, l := range lines {
			if l.flags == headline+flags {
				simexec, _ = strconv.ParseFloat(l.cols[0], 64)
				words, _ = strconv.ParseFloat(l.cols[2], 64)
				return simexec, words
			}
		}
		t.Fatalf("no ledger row %q", headline+flags)
		return 0, 0
	}

	interior, _ := row("-algo sssp -delta 32 -wire hybrid")
	dijkstra, _ := row("-algo sssp -delta 1 -wire hybrid")
	bellman, _ := row("-algo sssp -delta inf -wire hybrid")
	if interior >= dijkstra || interior >= bellman {
		t.Errorf("Δ = 32 (%g s) does not beat Δ = 1 (%g s) and Δ = inf (%g s)", interior, dijkstra, bellman)
	}

	async, _ := row("-algo sssp -part 1dcol -delta 128")
	sync, _ := row("-algo sssp -part 1dcol -delta 128 -async=false")
	if sync/async < 1.3 {
		t.Errorf("overlap speedup on sssp 1dcol Δ = 128 is %.3fx, below 1.3x", sync/async)
	}

	singleExec, singleWords := row("-direction topdown -wire auto")
	wider := 0.0 // the previous, wider batch's seconds a query: rows run 64, 16, 4 lanes
	for _, l := range lines {
		_, list, ok := strings.Cut(l.flags, headline+"-wire auto -sources ")
		if !ok {
			continue
		}
		lanes := float64(strings.Count(list, ",") + 1)
		simexec, words := row(strings.TrimPrefix(l.flags, headline))
		if words/lanes >= singleWords {
			t.Errorf("%g lanes move %g words a query, a single-source traversal %g", lanes, words/lanes, singleWords)
		}
		if q := simexec / lanes; q <= wider || q >= singleExec {
			t.Errorf("%g lanes cost %g s a query: want above the wider batch's %g and below a single traversal's %g",
				lanes, q, wider, singleExec)
		}
		wider = simexec / lanes
	}
	if wider == 0 {
		t.Error("no -sources rows in the headline block")
	}

	twins := 0
	for _, l := range lines {
		if !strings.Contains(l.flags, "-r 1 -c 6 ") || !strings.Contains(l.flags, "-part 1dcol") {
			continue
		}
		twins++
		twin := strings.Replace(l.flags, "-part 1dcol", "-part 2d", 1)
		i := slices.IndexFunc(lines, func(m ledgerLine) bool { return m.flags == twin })
		if i < 0 {
			t.Errorf("%q has no twin %q", l.flags, twin)
			continue
		}
		got, want := l.cols, lines[i].cols
		if strings.Contains(l.flags, "-sources") {
			// A MultiBFS document names its partitioning: compare the two
			// runs' documents without that line.
			var err error
			if got, err = measure(l.flags, `"Part":`); err == nil {
				want, err = measure(twin, `"Part":`)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if got != want {
			t.Errorf("%q records %v, its twin %q %v", l.flags, got, twin, want)
		}
	}
	if twins != 4 {
		t.Errorf("%d -r 1 -c 6 -part 1dcol twin pairs in the ledger, want 4", twins)
	}
}
