package main

// metricDef names one reported number. BENCHMARK.json repeats these
// tables for the driver (a test holds the two equal); bound is the
// share of the parent's median by which an end-to-end metric may get
// worse before a change is rejected, and is unused for layer metrics.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the numbers a user of the simulator or of graphd sees.
// Every workload reports every one of them, from the untraced run. The
// wall metrics and setup_s sit at 25%, the most the benchmark contract
// allows, because the host drifts by 10-20% over minutes, which no
// estimator inside a run removes; the others at three times or more the
// widest spread seen over ten seeds (README.md has the tables).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
	{"allocs_per_op", "count", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"simexec_s", "s", "lower", 0.10},
	{"wire_words", "words", "lower", 0.10},
}

// perLayer are the numbers of single layers, reported by the traced
// run. A metric that does not apply to a workload (sssp.* on a BFS
// workload, graphd.* on an engine workload) reads 0 there.
var perLayer = []metricDef{
	{"graph.generate_ms", "ms", "lower", 0},
	{"graph.serial_bfs_ms", "ms", "lower", 0},
	{"graph.dijkstra_ms", "ms", "lower", 0},

	{"partition.distribute_ms", "ms", "lower", 0},
	{"partition.store_mb", "MB", "lower", 0},
	{"partition.edges_max_over_mean", "ratio", "lower", 0},

	{"localindex.probes_per_op", "count", "lower", 0},
	{"localindex.get_ns", "ns", "lower", 0},
	{"localindex.sortset_ns_per_id", "ns", "lower", 0},
	{"localindex.union_ns_per_id", "ns", "lower", 0},

	{"frontier.encode_ns_per_id", "ns", "lower", 0},
	{"frontier.decode_ns_per_id", "ns", "lower", 0},
	{"frontier.words_per_id", "words", "lower", 0},

	{"pool.dispatch_ns_per_chunk", "ns", "lower", 0},
	{"pool.speedup_w2", "ratio", "higher", 0},

	{"comm.world_run_us", "us", "lower", 0},
	{"comm.pingpong_us", "us", "lower", 0},
	{"comm.allreduce_us", "us", "lower", 0},
	{"comm.msgs_per_op", "count", "lower", 0},
	{"comm.sim_comm_s", "s", "lower", 0},
	{"comm.sim_hidden_frac", "ratio", "higher", 0},

	{"torus.avg_hops_per_msg", "count", "lower", 0},
	{"torus.max_link_mb", "MB", "lower", 0},

	{"collective.expand_words_per_op", "words", "lower", 0},
	{"collective.fold_words_per_op", "words", "lower", 0},
	{"collective.fold_dup_frac", "ratio", "higher", 0},
	{"collective.alltoall_us", "us", "lower", 0},
	{"collective.twophase_fold_us", "us", "lower", 0},
	{"collective.twophase_expand_us", "us", "lower", 0},
	{"collective.fold_async_us", "us", "lower", 0},
	{"collective.sim_s", "s", "lower", 0},

	{"bfs.levels_per_op", "count", "lower", 0},
	{"bfs.bottomup_levels_per_op", "count", "higher", 0},
	{"bfs.edges_scanned_per_op", "count", "lower", 0},
	{"bfs.wall_ms_per_level", "ms", "lower", 0},
	{"bfs.wall_over_serial", "ratio", "lower", 0},
	{"bfs.sim_scan_s", "s", "lower", 0},
	{"bfs.multibfs_ms_per_source", "ms", "lower", 0},
	{"bfs.multibfs_over_single", "ratio", "lower", 0},
	{"bfs.multibfs_2lane_over_single", "ratio", "lower", 0},

	{"sssp.epochs_per_op", "count", "lower", 0},
	{"sssp.buckets_per_op", "count", "lower", 0},
	{"sssp.relaxations_per_op", "count", "lower", 0},
	{"sssp.resettle_frac", "ratio", "lower", 0},
	{"sssp.wall_ms_per_epoch", "ms", "lower", 0},
	{"sssp.wall_over_dijkstra", "ratio", "lower", 0},

	{"graphd.newserver_ms", "ms", "lower", 0},
	{"graphd.replica_mb", "MB", "lower", 0},
	{"graphd.queue_wait_ms_p50", "ms", "lower", 0},
	{"graphd.queue_wait_ms_p90", "ms", "lower", 0},
	{"graphd.sweep_ms_p50", "ms", "lower", 0},
	{"graphd.overhead_ms_p50", "ms", "lower", 0},
	{"graphd.mean_batch_lanes", "count", "higher", 0},
	{"graphd.simexec_s_per_query", "s", "lower", 0},
	{"graphd.words_per_query", "words", "lower", 0},
	{"graphd.bfs_ms_p50", "ms", "lower", 0},
	{"graphd.bfs_ms_p99", "ms", "lower", 0},
	{"graphd.path_ms_p50", "ms", "lower", 0},
	{"graphd.sssp_ms_p50", "ms", "lower", 0},
	{"graphd.rejected_frac", "ratio", "lower", 0},
	{"graphd.unbatched_over_batched_qps", "ratio", "lower", 0},

	{"host.gc_cycles_per_op", "count", "lower", 0},
	{"host.gc_pause_ms_per_op", "ms", "lower", 0},
	{"host.peak_rss_mb", "MB", "lower", 0},

	{"bench.trace_overhead_frac", "ratio", "lower", 0},
	{"bench.failed_frac", "ratio", "lower", 0},
}

// sample is one measured metric: its value and how many samples it
// summarises (ops, queries, probe repetitions).
type sample struct {
	value float64
	n     int
}

// results maps metric name to its sample for one run.
type results map[string]sample

func (r results) set(name string, value float64, n int) { r[name] = sample{value, n} }
