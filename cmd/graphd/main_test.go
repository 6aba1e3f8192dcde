package main

import (
	"bytes"
	"strings"
	"testing"

	bgl "repro"
	"repro/internal/graphd"
)

// TestConfigDefaults: no flags is the documented service — a 100,000
// vertex graph on a 2x2 mesh, one replica, 64-lane batches — with every
// admission, deadline, fault and chaos knob left at zero for the
// server's own defaults.
func TestConfigDefaults(t *testing.T) {
	cfg, addr, portFile, err := config(nil, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	if addr != "127.0.0.1:8080" || portFile != "" {
		t.Fatalf("listen on %q, port file %q; want 127.0.0.1:8080 and none", addr, portFile)
	}
	if cfg.Graph == nil || cfg.Graph.N() != 100000 || cfg.Graph.Weighted() {
		t.Fatalf("default graph %v, want an unweighted n = 100000", cfg.Graph)
	}
	want := graphd.Config{Graph: cfg.Graph, R: 2, C: 2, Partition: bgl.Part2D, Cores: 1, Replicas: 1, MaxBatch: bgl.MaxLanes}
	if cfg != want {
		t.Fatalf("defaults map to %+v, want %+v", cfg, want)
	}
}

// TestConfigQueueFlagGone: -queue went with the path / sssp worker
// queue; it is a usage error now.
func TestConfigQueueFlagGone(t *testing.T) {
	var stderr bytes.Buffer
	if _, _, _, err := config([]string{"-n", "100", "-queue", "4"}, &stderr); err == nil {
		t.Fatal("-queue 4 accepted")
	}
	if !strings.Contains(stderr.String(), "-queue") {
		t.Fatalf("usage error does not name -queue:\n%s", stderr.String())
	}
}

// TestConfigUnknownPartition: -part takes 2d, 1drow or 1dcol.
func TestConfigUnknownPartition(t *testing.T) {
	_, _, _, err := config([]string{"-n", "100", "-part", "bogus"}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("-part bogus: err %v, want an unknown-partitioning error", err)
	}
}

// TestConfigPassesThrough: the fault plan, the core model and the pool
// size reach the Config as given.
func TestConfigPassesThrough(t *testing.T) {
	cfg, _, _, err := config([]string{"-n", "100", "-fault", "canned:7", "-cores", "2", "-workers", "1"}, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Fault == nil || cfg.Fault.String() != bgl.CannedFaultPlan(7).String() {
		t.Fatalf("fault plan %v, want canned:7", cfg.Fault)
	}
	if cfg.Cores != 2 || cfg.Workers != 1 {
		t.Fatalf("cores %d workers %d, want 2 and 1", cfg.Cores, cfg.Workers)
	}
}
