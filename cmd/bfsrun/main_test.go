package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRunVerifiesUnderJSON pins the order of run's tail in every output
// shape: the serial oracle is consulted before anything is printed, and
// under -json its "verified" line goes to stderr so stdout stays one
// valid document.
func TestRunVerifiesUnderJSON(t *testing.T) {
	for _, tc := range []struct{ name, flags, verified string }{
		{"bfs", "-direction dirop -wire hybrid", "verified against serial oracle: OK\n"},
		{"search", "-target 40 -bidir", "verified against serial oracle: OK\n"},
		{"sssp", "-algo sssp -delta 25", "verified against serial Dijkstra oracle: OK\n"},
		{"sources", "-sources 3,99,1024 -part 1dcol", "verified 3 lanes against the serial oracle: OK\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append(strings.Fields("-n 2000 -k 6 -seed 3 -r 2 -c 2 "+tc.flags), "-json")
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatal(err)
			}
			if stderr.String() != tc.verified {
				t.Errorf("stderr = %q, want %q", stderr.String(), tc.verified)
			}
			var doc struct{ N int }
			if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil || doc.N != 2000 {
				t.Errorf("stdout is not the run's JSON document (N = %d, err %v):\n%s", doc.N, err, stdout.String())
			}

			// -verify=false is the one way to skip the oracle; the text
			// report ends with the same line when it is on.
			stdout.Reset()
			stderr.Reset()
			if err := run(append(args, "-verify=false"), &stdout, &stderr); err != nil {
				t.Fatal(err)
			}
			if stderr.Len() != 0 {
				t.Errorf("-verify=false still wrote to stderr: %q", stderr.String())
			}
			stdout.Reset()
			if err := run(args[:len(args)-1], &stdout, &stderr); err != nil {
				t.Fatal(err)
			}
			if !strings.HasSuffix(stdout.String(), "\n\n"+tc.verified) || stderr.Len() != 0 {
				t.Errorf("text report does not end with the verified line on stdout:\n%s\nstderr: %q", stdout.String(), stderr.String())
			}
		})
	}
}

// TestCoresZeroIsCoresOne: -cores 0 runs as one core, so its -json
// document — Cores and Workers echoed included — is byte-identical to
// -cores 1's once the wall-clock lines are dropped, for each document
// shape.
func TestCoresZeroIsCoresOne(t *testing.T) {
	doc := func(args string) string {
		var stdout, stderr bytes.Buffer
		if err := run(strings.Fields(args), &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		var kept []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if !strings.Contains(line, "Wall") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	for _, flags := range []string{"", "-algo sssp", "-sources 3,99 -part 1dcol"} {
		base := "-n 1000 -k 4 -r 2 -c 2 -json " + flags
		zero, one := doc(base+" -cores 0"), doc(base+" -cores 1")
		if zero != one {
			t.Errorf("%q: -cores 0 and -cores 1 documents differ:\n%s\n---\n%s", flags, zero, one)
		}
		if !strings.Contains(zero, `"Cores": 1,`) || !strings.Contains(zero, `"Workers": 1,`) {
			t.Errorf("%q: -cores 0 does not echo one core and one worker:\n%s", flags, zero)
		}
	}
}

// TestRunRejectsBadFlags: every command line bfsrun refuses comes back
// from run as a descriptive error — no panic, no exit, nothing on
// stdout.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct{ flags, want string }{
		{"-part 3d", `unknown partitioning "3d"`},
		{"-wire morse", `unknown wire encoding "morse"`},
		{"-fold origami", `unknown fold algorithm "origami"`},
		{"-expand all", `unknown expand algorithm "all"`},
		{"-direction sideways", `unknown direction policy "sideways"`},
		{"-algo dfs", `unknown algorithm "dfs"`},
		{"-algo sssp -wdist normal", `unknown weight distribution "normal"`},
		{"-algo sssp -delta wide", `bad -delta "wide"`},
		{"-algo sssp -delta -3", `bad -delta "-3"`},
		{"-sources 1,x", `bad -sources entry "x"`},
		{"-sources 1,5000", "source 5000 (lane 1) out of range"},
		{"-sources 1,2 -target 5", "cannot combine with -target/-bidir"},
		{"-sources 1,2 -bidir", "cannot combine with -target/-bidir"},
		{"-sources 1,2 -algo sssp", "cannot combine with -algo sssp"},
		{"-sources 1,2 -source 3", "-sources and -source conflict"},
		{"-checkpoint snap.ckpt", "-checkpoint and -kill-at must be given together"},
		{"-kill-at 2", "-checkpoint and -kill-at must be given together"},
		{"-checkpoint snap.ckpt -kill-at 2 -trace t.json", "-checkpoint cannot combine with -trace"},
		{"-checkpoint snap.ckpt -kill-at 2 -restore old.ckpt", "-checkpoint and -restore cannot combine"},
		{"-restore snap.ckpt -trace t.json", "-restore cannot combine with -trace"},
		{"-restore no-such-file.ckpt", "no-such-file.ckpt"},
		{"-input no-such-file.txt", "no-such-file.txt"},
		{"-fault gremlins=1", "fault"},
		{"-n 3 -k 1", "mesh 2x2 has more ranks (4) than the graph has vertices (3)"},
		{"-n 5 -k 1 -r 2 -c 3 -part 1dcol", "mesh 2x3 has more ranks (6) than the graph has vertices (5)"},
		{"-chunk -5", "-chunk must be non-negative, got -5"},
		{"-cores -2", "-cores must be non-negative, got -2"},
		{"-workers -3", "-workers must be non-negative, got -3"},
		{"-n many", "usage"},
		{"-levels", "usage"},
	} {
		t.Run(tc.flags, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(strings.Fields("-n 400 -k 4 -r 2 -c 2 "+tc.flags), &stdout, &stderr)
			if err == nil {
				t.Fatalf("accepted; stdout:\n%s", stdout.String())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("a refused command line wrote to stdout:\n%s", stdout.String())
			}
		})
	}
}
