GO ?= go

.PHONY: ci fmt-check vet tier1 race race-pool build test bench bench-smoke bench-lab-test perf perf-pairs sim-matrix trace-smoke chaos-smoke graphd-smoke graphd-chaos profile profile-bench fuzz loc

# Seconds per fuzz target in `make fuzz`.
FUZZTIME ?= 20s

ci: fmt-check vet tier1 race race-pool bench-smoke bench-lab-test trace-smoke chaos-smoke graphd-smoke graphd-chaos

fmt-check:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Tier-1 verification: everything builds, every test passes — the
# simulated ledger (TestSimLedger, see sim-matrix below) among them.
tier1:
	$(GO) build ./... && $(GO) test ./...

# Race-detector pass: the SPMD ranks are goroutines sharing one address
# space; any unsynchronized touch of a payload in flight shows up here.
# -short is read by one test: the simulated ledger keeps its 240-line
# matrix block under the detector and skips the n = 100,000 block.
race:
	$(GO) test -race -short ./...

# Worker-pool matrix under the race detector: the determinism suite
# (pool sizes 1/2/8 byte-identical on every mesh x codec x schedule),
# the oracle-equivalence suite at 8 workers, the cores cost-model
# check, the read-only-stores proof (two clusters searching one
# distributed graph at once, every engine, 1 and 4 workers), and the
# package-level regression tests pinning the pool itself and the
# concurrent map readers. internal/frontier stays in the pass for one
# concurrent test, TestSetBitAtomicSharedWords: the CAS bit sets the
# bottom-up claimParents makes from several workers into shared words.
race-pool:
	$(GO) test -race -count=1 -run 'TestWorkerPoolDeterminism|TestParallelOracleEquivalence|TestCoresModel|TestSharedGraphConcurrentClusters' .
	$(GO) test -race -count=1 ./internal/pool ./internal/localindex ./internal/frontier

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every benchmark once; BenchmarkMultiBFS1D (the perf lab's
# multibfs1d-64 sweep) prints its B/op and allocs/op in every CI log.
bench:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

# One-iteration benchmark smoke: every exhibit still runs to completion
# (BenchmarkExhibit, in internal/harness, ranges over harness.All).
# Then the union folds' merge with allocation counts: two 10,000-id
# sets (one rank's share of multibfs1d-64's largest sweep) at 10/50/90%
# overlap into reused scratch, in ns per id, 0 allocs/op. The value
# folds merge at the row, on both sides of the exchange; their number
# is BenchmarkMultiBFS1D's and BenchmarkDeltaStepping's, below.
# Then the per-layer number for a top-down scan's column lookup: one
# rank of the lab's 4x4 graph resolving a sorted 4,096-vertex part
# through its dense column index, in ns per vertex, 0 allocs/op. Then
# the targeted expand that feeds that scan: one column expand on all 16
# ranks of the same graph, a dense frontier (half the owned vertices,
# staged as bitmap words) and a sparse one (one in 64, as ids), raw id
# lists on the wire, in ns/op and allocs/op.
# Then the wire codec: one 4x4 rank's owned bitmap of the lab's
# 100,000-vertex graph through the hybrid bits encoder at 3%, 25% and
# 60% occupancy (the bottom-up level's), in ns/op; and a value fold's
# member universes of 2,500 and 6,250 ids at 1, 5, 20 and 50% occupancy
# through the one-pass hybrid set encoder and its decoder, in ns per id,
# 0 allocs/op into a reused buffer.
# Then the simulator's fixed cost in P (ROADMAP item 4): NewWorld at
# P = 16 and 256, in B/op and allocs/op — today the P^2 mailboxes —
# and the transport's frame checksum on 16- and 16k-word payloads, in
# MB/s.
# Then the paper's top-down level as a whole: full top-down searches of
# the lab's 100,000-vertex graph on 4x4, in ns/op and allocs/op.
# Last the four loops that read each edge entry's local row, with their
# allocations: the bottom-up claim scan (direction-optimizing searches
# of the same graph), the Δ-stepping relax scan (searches of a weighted
# 100,000-vertex graph on 4x4), the 64-lane MultiBFS sweep that ORs its
# masks at the row (the perf lab's multibfs1d-64 shape) and the loader
# that numbers the rows (Build2D of another). Together about 4 s.
bench-smoke: bench
	$(GO) test -run=^$$ -bench=UnionSorted -benchtime=100x -benchmem ./internal/localindex
	$(GO) test -run=^$$ -bench=ResolveColumns -benchtime=100x -benchmem ./internal/partition
	$(GO) test -run=^$$ -bench=ColumnExpand -benchtime=100x -benchmem ./internal/search
	$(GO) test -run=^$$ -bench='EncodeBits|EncodeSet|DecodeSet' -benchtime=100x -benchmem ./internal/frontier
	$(GO) test -run=^$$ -bench=NewWorld -benchtime=10x -benchmem ./internal/comm
	$(GO) test -run=^$$ -bench=Checksum -benchtime=100x -benchmem ./internal/comm
	$(GO) test -run=^$$ -bench=DirectionTopDown -benchtime=20x -benchmem .
	$(GO) test -run=^$$ -bench='^BenchmarkDirectionOptimizing$$' -benchtime=20x -benchmem .
	$(GO) test -run=^$$ -bench='^BenchmarkDeltaStepping$$' -benchtime=10x -benchmem .
	$(GO) test -run=^$$ -bench='^BenchmarkMultiBFS1D$$' -benchtime=5x -benchmem .
	$(GO) test -run=^$$ -bench='^BenchmarkBuild2D$$' -benchtime=5x -benchmem .

# The wall-clock perf lab is its own module (bench/go.mod), outside
# `go test ./...`: run its tests — every workload at n = 2000,
# oracle-checked, plus the estimator unit tests — from inside it.
bench-lab-test:
	cd bench && $(GO) test ./...

# One run of the perf lab the way the driver runs it; pass arguments
# with ARGS, e.g. `make perf ARGS="--workload multibfs1d-64 --seed 9
# --seconds 16 --trace 0"` (see bench/README.md).
perf:
	bash bench/run.sh $(ARGS)

# Wall-clock comparison of the working tree against a base revision on
# one lab workload: N alternating pairs of the driver's run (16 s,
# untraced), then per end-to-end metric both sides' median and
# quartiles, the pairs won, and whether the medians differ by more than
# the base's inter-quartile distance. The base is exported and built
# under .bench_build/ (see scripts/perfpairs.sh). About 40 s a pair.
#   make perf-pairs BASE=HEAD~1 WORKLOAD=bfs2d-topdown [N=10] [SEED=9]
N ?= 10
SEED ?= 9
perf-pairs:
	@[ -n "$(BASE)" ] && [ -n "$(WORKLOAD)" ] || { echo "usage: make perf-pairs BASE=<rev> WORKLOAD=<name> [N=10] [SEED=9]"; exit 2; }
	bash scripts/perfpairs.sh $(BASE) $(WORKLOAD) $(N) $(SEED)

# Simulated-drift check: run every line of the simulated ledger
# (cmd/bfsrun/testdata/ledger.tsv — a 240-configuration `bfsrun -json`
# matrix over every family x partitioning x wire codec x schedule, the
# fold/expand collectives, direction policies, sent cache, a canned
# fault plan and cores/workers, plus the 28 flagship runs) in-process,
# oracle-verified, and compare simexec_s, simcomm_s, words and the
# document's SHA-256 exactly; a difference prints the runnable bfsrun
# line and the column that moved. Part of tier1; this is the test alone.
# When a PR means to move a number, rewrite the file and commit it:
#   go test ./cmd/bfsrun -run TestSimLedger -update
sim-matrix:
	$(GO) test -count=1 -run 'TestSimLedger|TestLedgerClaims|TestRestoreMatchesLedger' ./cmd/bfsrun

# Trace smoke: record BFS and Δ-stepping runs with -trace (which
# re-derives clock == comp + comm - overlap from the span stream and
# cross-checks it against the Result before writing), then re-verify
# the exported files with the standalone checker.
trace-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/bfsrun -n 20000 -k 10 -r 4 -c 4 -direction dirop -wire hybrid -trace $$tmp/bfs.json -metrics $$tmp/bfs.metrics >/dev/null; \
	$(GO) run ./cmd/bfsrun -algo sssp -n 20000 -k 10 -r 4 -c 4 -delta 128 -trace $$tmp/sssp.json >/dev/null; \
	$(GO) run ./cmd/tracecheck -q $$tmp/bfs.json $$tmp/sssp.json; \
	echo "trace-smoke: both span exports verified"

# Chaos smoke: the robustness gate. First the differential suite under
# the race detector — every engine on every mesh shape and wire codec,
# faulted (canned plan: corruption, drops, duplicates, delays, a
# straggler, an outage) vs clean, with scrubbed Results required to
# match exactly, plus the in-process kill/restore byte-identity checks.
# Then a CLI round trip: checkpoint a faulted flagship BFS, Δ-stepping
# run and multi-source batch at an interior level/epoch/sweep, restore
# each from its snapshot file, and re-verify the resumed runs against
# the serial oracles.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaosDifferential|TestChaosKillRestore' .
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/bfsrun -n 20000 -k 10 -r 4 -c 4 -direction dirop -wire hybrid -fault canned -checkpoint $$tmp/bfs.ckpt -kill-at 3 >/dev/null; \
	$(GO) run ./cmd/bfsrun -n 20000 -k 10 -r 4 -c 4 -direction dirop -wire hybrid -fault canned -restore $$tmp/bfs.ckpt >/dev/null; \
	$(GO) run ./cmd/bfsrun -algo sssp -n 20000 -k 10 -r 4 -c 4 -wire hybrid -fault canned -checkpoint $$tmp/sssp.ckpt -kill-at 4 >/dev/null; \
	$(GO) run ./cmd/bfsrun -algo sssp -n 20000 -k 10 -r 4 -c 4 -wire hybrid -fault canned -restore $$tmp/sssp.ckpt >/dev/null; \
	$(GO) run ./cmd/bfsrun -sources 3,99,1024,19999 -n 20000 -k 10 -r 4 -c 4 -wire hybrid -fault canned -checkpoint $$tmp/multi.ckpt -kill-at 3 >/dev/null; \
	$(GO) run ./cmd/bfsrun -sources 3,99,1024,19999 -n 20000 -k 10 -r 4 -c 4 -wire hybrid -fault canned -restore $$tmp/multi.ckpt >/dev/null; \
	echo "chaos-smoke: faulted differential suite and kill/restore round trips verified"

# graphd smoke: the end-to-end service gate. Build the server and the
# load generator, start graphd on a free port (port discovered through
# -portfile), fire a seeded 120-query bfs/path/sssp mix from 16
# concurrent workers with every answer verified against the serial
# oracles, require the server to have actually coalesced queries
# (-expect-batching) and to expose the graphd instruments
# (-check-metrics), then drain it with SIGTERM and require exit 0.
graphd-smoke:
	@set -e; tmp=$$(mktemp -d); pid=""; \
	trap '{ [ -n "$$pid" ] && kill $$pid; rm -rf "$$tmp"; } 2>/dev/null || true' EXIT; \
	$(GO) build -o $$tmp/graphd ./cmd/graphd; \
	$(GO) build -o $$tmp/graphload ./cmd/graphload; \
	$$tmp/graphd -n 20000 -k 10 -seed 42 -weighted -r 2 -c 2 \
		-addr 127.0.0.1:0 -portfile $$tmp/port 2>$$tmp/graphd.log & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/port ] && break; sleep 0.1; done; \
	[ -s $$tmp/port ] || { echo "graphd-smoke: server never wrote its port file"; cat $$tmp/graphd.log; exit 1; }; \
	$$tmp/graphload -addr $$(cat $$tmp/port) -queries 120 -concurrency 16 -seed 7 \
		-mix bfs=6,path=1,sssp=1 -verify -n 20000 -k 10 -graph-seed 42 -weighted \
		-expect-batching -check-metrics || { cat $$tmp/graphd.log; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "graphd-smoke: server exited non-zero on drain"; cat $$tmp/graphd.log; exit 1; }; \
	pid=""; \
	echo "graphd-smoke: 120 verified queries, batching observed, clean drain"

# graphd chaos: the serving-under-fire gate. Same shape as
# graphd-smoke, but the server runs 2 replicas with a deterministic
# fault plan on every sweep, a 30s wall cap, and a one-shot drill that
# panics a replica on its 3rd BFS sweep. graphload -chaos arms the
# resilient client (jitter, breaker, hedged BFS), verifies every
# answer against the serial oracles anyway, fires a deadline probe
# every 25th query that must come back 504 (never a hang, never a
# 500), requires the server to report injected faults, and finally
# polls /v1/stats until the quarantined replica has been rebuilt and
# the fleet answers again. Then SIGTERM must still drain to exit 0.
graphd-chaos:
	@set -e; tmp=$$(mktemp -d); pid=""; \
	trap '{ [ -n "$$pid" ] && kill $$pid; rm -rf "$$tmp"; } 2>/dev/null || true' EXIT; \
	$(GO) build -o $$tmp/graphd ./cmd/graphd; \
	$(GO) build -o $$tmp/graphload ./cmd/graphload; \
	$$tmp/graphd -n 20000 -k 10 -seed 42 -weighted -r 2 -c 2 -replicas 2 \
		-fault canned:7 -chaos-panic-sweep 3 -max-query-time 30s \
		-addr 127.0.0.1:0 -portfile $$tmp/port 2>$$tmp/graphd.log & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/port ] && break; sleep 0.1; done; \
	[ -s $$tmp/port ] || { echo "graphd-chaos: server never wrote its port file"; cat $$tmp/graphd.log; exit 1; }; \
	$$tmp/graphload -addr $$(cat $$tmp/port) -queries 150 -concurrency 16 -seed 7 \
		-mix bfs=6,path=1,sssp=1 -verify -n 20000 -k 10 -graph-seed 42 -weighted \
		-chaos -deadline-every 25 -deadline-ms 1 -expect-faults -expect-batching \
		|| { cat $$tmp/graphd.log; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "graphd-chaos: server exited non-zero on drain"; cat $$tmp/graphd.log; exit 1; }; \
	pid=""; \
	echo "graphd-chaos: faulted+panicked serving verified, deadlines 504d, replica rebuilt, clean drain"

# Source size: non-test Go lines (wc -l) per package, the bfs + sssp +
# collective + search sum ROADMAP item 6 tracks, and the total outside
# the perf lab (bench/) and hidden directories; then the test lines
# (_test.go files) outside bench/ and hidden directories. Not part of ci.
loc:
	@find . -path './.*' -prune -o -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs wc -l | \
	awk '$$2 != "total" { d = $$2; sub(/^\.\//, "", d); if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1; all += $$1 } \
	END { for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
		printf "%6d  bfs + sssp + collective + search\n", n["internal/bfs"] + n["internal/sssp"] + n["internal/collective"] + n["internal/search"]; \
		printf "%6d  total outside bench/\n", all }'
	@find . -path './.*' -prune -o -path ./bench -prune -o -name '*_test.go' -print | xargs cat | wc -l | \
	awk '{ printf "%6d  test lines outside bench/\n", $$1 }'

# Host-process profiles of the flagship workload; inspect with
# `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) run ./cmd/bfsrun -n 100000 -k 10 -r 4 -c 4 -verify=false -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof (open with: go tool pprof cpu.pprof)"

# The same two profiles of one root-package benchmark at a fixed
# iteration count, so profiles taken before and after a change cover
# the same work: `make profile-bench BENCH=MultiBFS1D` (the Benchmark
# prefix is optional; BENCHTIME=100x by default). go test keeps the
# test binary, repro.test, beside them for pprof's symbols.
BENCHTIME ?= 100x
profile-bench:
	@[ -n "$(BENCH)" ] || { echo "usage: make profile-bench BENCH=<name> [BENCHTIME=100x]"; exit 2; }
	$(GO) test -run='^$$' -bench='^(Benchmark)?$(BENCH)$$' -benchtime=$(BENCHTIME) -benchmem -cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "wrote cpu.pprof and mem.pprof (open with: go tool pprof repro.test cpu.pprof)"

# Coverage-guided fuzzing: the value fold that merges at the row (min
# and OR, on meshes up to 2 x 3) vs the sorted reference, the hybrid
# wire codec round-trips, malformed payload rejection, weighted
# edge-list IO, and distributed Δ-stepping vs the serial Dijkstra
# oracle. FUZZTIME sets the budget per target.
fuzz:
	$(GO) test ./internal/search -run=^$$ -fuzz=FuzzValueFold -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/frontier -run=^$$ -fuzz=FuzzHybridSetRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/frontier -run=^$$ -fuzz=FuzzHybridBitsRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/frontier -run=^$$ -fuzz=FuzzDecodeMalformed -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/graph -run=^$$ -fuzz=FuzzWeightedEdgeListRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sssp -run=^$$ -fuzz=FuzzDeltaSteppingVsDijkstra -fuzztime=$(FUZZTIME)
