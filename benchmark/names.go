package main

import "slices"

// The names in this file are the benchmark's public vocabulary: later
// changes cite workloads and metrics by these strings, and
// BENCHMARK.json at the repository root lists exactly these (a test
// compares the two).

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; zero
	// for per-layer metrics, which carry no bound.
	Bound float64
}

// endToEnd is what a user of the runtime sees. Every workload reports
// every one of them, from untraced repetitions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ns_per_op", "ns", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// scoped are user-visible metrics that only one workload can report
// (latency percentiles need the quiesce cycle, simulated time needs the
// sim wire). In BENCHMARK.json they sit with the per-layer metrics,
// because that contract wants every end-to-end metric from every
// workload, and like every per-layer metric the latency percentiles
// carry no bound: on the box this was sized on they do not repeat
// within 10 %, and a metric that cannot is demoted, not given a wider
// bound. sim_s is a property of the simulation, not of the host, and
// -aa holds its two medians to simTolerance.
var scoped = []metricDef{
	{"sim_s", "sim_s", "lower", simTolerance},
	{Name: "quiesce_p50_us", Unit: "us", Better: "lower"},
	{Name: "quiesce_p99_us", Unit: "us", Better: "lower"},
	{Name: "deliver_p50_us", Unit: "us", Better: "lower"},
	{Name: "deliver_p99_us", Unit: "us", Better: "lower"},
}

// groupA comes from each workload's traced repetition.
var groupA = []metricDef{
	{Name: "app.gen_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "ygm.send_self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "ygm.handler_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "ygm.waitempty_self_s", Unit: "s", Better: "lower"},
	{Name: "ygm.commctx_s", Unit: "s", Better: "lower"},
	{Name: "ygm.drain_s", Unit: "s", Better: "lower"},
	{Name: "ygm.exchange_s", Unit: "s", Better: "lower"},
	{Name: "ygm.flushes", Unit: "count", Better: "lower"},
	{Name: "ygm.flush_capacity_share", Unit: "ratio", Better: "higher"},
	{Name: "ygm.records_per_pkt", Unit: "count", Better: "higher"},
	{Name: "ygm.hops_per_msg", Unit: "count", Better: "lower"},
	{Name: "ygm.term_generations", Unit: "count", Better: "lower"},
	{Name: "ygm.term_generations_per_waitempty", Unit: "count", Better: "lower"},
	{Name: "ygm.empty_round_msgs", Unit: "count", Better: "lower"},
	{Name: "collective.time_s", Unit: "s", Better: "lower"},
	{Name: "collective.calls", Unit: "count", Better: "lower"},
	{Name: "transport.busy_share", Unit: "ratio", Better: "higher"},
	{Name: "transport.wait_s", Unit: "s", Better: "lower"},
	{Name: "transport.pkts_local", Unit: "count", Better: "lower"},
	{Name: "transport.pkts_remote", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_remote_pkt", Unit: "B", Better: "higher"},
	{Name: "transport.inbox_parks", Unit: "count", Better: "lower"},
	{Name: "transport.inbox_spin_hits", Unit: "count", Better: "higher"},
	{Name: "transport.wakeups_suppressed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "transport.inbox_max_depth", Unit: "count", Better: "lower"},
	{Name: "transport.run_start_s", Unit: "s", Better: "lower"},
	{Name: "transport.run_finish_s", Unit: "s", Better: "lower"},
	{Name: "sched.handoffs", Unit: "count", Better: "lower"},
	{Name: "sched.worker_utilization", Unit: "ratio", Better: "higher"},
	{Name: "sched.ready_depth_hwm", Unit: "count", Better: "lower"},
	{Name: "wire.syscw_per_pkt", Unit: "count", Better: "lower"},
	{Name: "wire.syscr_per_pkt", Unit: "count", Better: "lower"},
	{Name: "go.allocs_per_kop", Unit: "count", Better: "lower"},
	{Name: "go.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// groupB is the ladder: workload-independent rungs, one steady-state
// loop each, all set-up outside the timer.
var groupB = []metricDef{
	{Name: "codec.encode_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "codec.decode_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "machine.next_hop_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.inbox_ns_per_pkt_p1", Unit: "ns", Better: "lower"},
	{Name: "transport.inbox_ns_per_pkt_p3", Unit: "ns", Better: "lower"},
	{Name: "transport.local_stream_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "transport.local_pingpong_us", Unit: "us", Better: "lower"},
	{Name: "transport.local_mb_per_s_64k", Unit: "MB/s", Better: "higher"},
	{Name: "transport.tcp_stream_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "transport.tcp_pingpong_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_mb_per_s_64k", Unit: "MB/s", Better: "higher"},
	{Name: "transport.sim_stream_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "transport.setup_us_w4", Unit: "us", Better: "lower"},
	{Name: "transport.setup_ms_w2048", Unit: "ms", Better: "lower"},
	{Name: "transport.tcp_setup_ms_w2", Unit: "ms", Better: "lower"},
	{Name: "collective.local_barrier_us", Unit: "us", Better: "lower"},
	{Name: "collective.local_allreduce_us", Unit: "us", Better: "lower"},
	{Name: "collective.tcp_barrier_us", Unit: "us", Better: "lower"},
	{Name: "collective.sim2k_barrier_host_ms", Unit: "ms", Better: "lower"},
	{Name: "ygm.lazy_nlnr_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "ygm.lazy_noroute_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "ygm.lazy_cap16_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "ygm.round_nlnr_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "ygm.sync_nlnr_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "ygm.bcast_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "ygm.waitempty_idle_us", Unit: "us", Better: "lower"},
	{Name: "ygm.send_side_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "ygm.recv_side_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "ygm.tcp_quiesce_p50_us", Unit: "us", Better: "lower"},
	{Name: "container.incr_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "container.incr_1rank_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "container.fetch_us", Unit: "us", Better: "lower"},
	{Name: "app.wordcount_serial_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "app.bfs_serial_edges_per_s", Unit: "1/s", Better: "higher"},
	{Name: "obs.counter_add_ns", Unit: "ns", Better: "lower"},
}

// userVisible is what a measured workload prints and -aa compares; -aa
// gates the ones that carry a bound.
func userVisible() []metricDef { return slices.Concat(endToEnd, scoped) }

// workloadLayers are the per-layer metrics that depend on the workload.
func workloadLayers() []metricDef { return slices.Concat(scoped, groupA) }

// perLayer is everything a traced run prints, in print order.
func perLayer() []metricDef { return slices.Concat(scoped, groupA, groupB) }
