package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// mustConfig parses args or fails the test.
func mustConfig(t *testing.T, args ...string) options {
	t.Helper()
	o, err := config(args, new(bytes.Buffer))
	if err != nil {
		t.Fatalf("config(%q): %v", args, err)
	}
	return o
}

// TestPlanIsSeeded: the same seed plans the same stream, query for
// query, with every source and target in [0, n) and every kind from the
// mix; another seed plans another.
func TestPlanIsSeeded(t *testing.T) {
	args := []string{"-queries", "300", "-seed", "7", "-n", "1000", "-mix", "bfs=6,path=1,sssp=1"}
	a, b := plan(mustConfig(t, args...)), plan(mustConfig(t, args...))
	if len(a) != 300 || !slices.Equal(a, b) {
		t.Fatalf("two plans of one seed differ (%d and %d queries)", len(a), len(b))
	}
	kinds := map[string]int{}
	for i, q := range a {
		if q.source < 0 || q.source >= 1000 || q.target < 0 || q.target >= 1000 || q.deadline {
			t.Fatalf("query %d: %+v outside n = 1000 or flagged with no -deadline-every", i, q)
		}
		kinds[q.kind]++
	}
	if len(kinds) != 3 || kinds["bfs"] < kinds["path"] || kinds["bfs"] < kinds["sssp"] {
		t.Fatalf("kinds drawn %v from mix bfs=6,path=1,sssp=1", kinds)
	}
	if other := plan(mustConfig(t, append(args, "-seed", "8")...)); slices.Equal(a, other) {
		t.Fatal("seeds 7 and 8 plan the same stream")
	}
}

// TestPlanDeadlineEvery: -deadline-every 25 flags exactly every 25th
// query and leaves the stream otherwise what -deadline-every 0 plans.
func TestPlanDeadlineEvery(t *testing.T) {
	args := []string{"-queries", "120", "-seed", "3", "-n", "500"}
	plain := plan(mustConfig(t, append(args, "-deadline-every", "0")...))
	probed := plan(mustConfig(t, append(args, "-deadline-every", "25")...))
	if len(plain) != len(probed) {
		t.Fatalf("%d queries with probes, %d without", len(probed), len(plain))
	}
	for i := range probed {
		if want := (i+1)%25 == 0; probed[i].deadline != want {
			t.Fatalf("query %d: deadline %v, want %v", i, probed[i].deadline, want)
		}
		q := probed[i]
		q.deadline = false
		if q != plain[i] {
			t.Fatalf("query %d: %+v with probes, %+v without", i, probed[i], plain[i])
		}
	}
}

// TestConfigUsageErrors: a query range or mix that plans nothing sound
// is refused before any query is planned.
func TestConfigUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "0"}, "-n"},
		{[]string{"-n", "-5"}, "-n"},
		{[]string{"-mix", "bfs=2,walk=1"}, `"walk"`},
		{[]string{"-mix", "bfs=x"}, `"x"`},
		{[]string{"-mix", "bfs=0"}, "selects no queries"},
		{[]string{"-queries", "0"}, "-queries"},
		{[]string{"-deadline-every", "-1"}, "-deadline-every"},
		{[]string{"-bogus"}, "-bogus"},
	} {
		var stderr bytes.Buffer
		_, err := config(tc.args, &stderr)
		if err == nil || !strings.Contains(err.Error()+stderr.String(), tc.want) {
			t.Errorf("config(%q): err %v, want a usage error naming %s", tc.args, err, tc.want)
		}
	}
}
