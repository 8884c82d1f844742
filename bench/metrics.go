package main

import "slices"

// metric names one number the benchmark prints. The names and units are
// fixed here and in BENCHMARK.json (a test keeps the two in step): every
// later performance change is judged under these names.
type metric struct {
	name, unit string
}

// endToEnd are the bounded metrics, printed by the untraced run. Each
// is defined on all four workloads, and each is a size, a count or a
// quality that repeats exactly for a seed. This benchmark bounds no
// wall-clock or CPU-time reading: on the machine it was calibrated on the
// same code runs 15–40 % slower for minutes at a time (CALIBRATION.md),
// which no statistic taken inside one run sees through, and the largest
// bound the contract allows is 0.25. Every timing is therefore on the
// per-layer list, which carries no bounds; a change that claims a timing
// gain shows it with paired runs of parent and change. setup_s is the
// exception the contract demands.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"state_kb", "KB"},
	{"tweet_accuracy", "fraction"},
	{"user_accuracy", "fraction"},
	{"sweeps_per_tweet", "count"},
}

// timings are the end-to-end timing readings: printed by every run for
// the reader, and part of the per-layer list (so unbounded) for the
// driver. In a traced run they come from its untraced passes.
var timings = []metric{
	{"tweets_per_s", "tweets/s"},
	{"cpu_ms_per_ktweet", "ms"},
	{"batch_p50_ms", "ms"},
	{"batch_p95_ms", "ms"},
	{"batch_p99_ms", "ms"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"recovery_ms", "ms"},
	{"disk_bytes_per_tweet", "B"},
}

// perLayer are the metrics of single layers, printed by the traced run
// after the timings above. A layer a workload does not exercise reads 0
// there; a metric a workload does not have is not printed and is 0 in the
// result object, which has to carry every name.
var perLayer = append(slices.Clone(timings), []metric{
	{"text.tokenize_us_per_ktweet", "us"},
	{"text.tokens_per_tweet", "count"},
	{"text.vocab_build_ms", "ms"},
	{"text.vocab_size", "count"},
	{"lexicon.prior_ms", "ms"},
	{"tgraph.build_us_per_ktweet", "us"},
	{"tgraph.nnz_per_tweet", "count"},
	{"conform.score_ns_per_batch", "ns"},
	{"core.solve_us_per_ktweet", "us"},
	{"core.iters_per_batch", "count"},
	{"core.converged_share", "fraction"},
	{"core.objective_final", "loss"},
	{"core.us_per_iter_ktweet", "us"},
	{"mat.mul_ns_per_row", "ns"},
	{"sparse.spmm_ns_per_nnz", "ns"},
	{"par.split_share", "fraction"},
	{"engine.self_us_per_ktweet", "us"},
	{"engine.view_build_us_per_batch", "us"},
	{"engine.allocs_per_batch", "count"},
	{"engine.alloc_kb_per_ktweet", "KB"},
	{"engine.heap_live_mb", "MB"},
	{"topic.process_us_per_ktweet", "us"},
	{"topic.read_ns", "ns"},
	{"topic.snapshot_ms", "ms"},
	{"topic.restore_ms", "ms"},
	{"codec.batch_decode_us_per_ktweet", "us"},
	{"codec.batch_wire_bytes_per_tweet", "B"},
	{"codec.response_encode_us_per_batch", "us"},
	{"codec.snapshot_encode_mb_per_s", "MB/s"},
	{"codec.snapshot_decode_mb_per_s", "MB/s"},
	{"journal.encode_us_per_batch", "us"},
	{"journal.append_us_per_batch", "us"},
	{"journal.bytes_per_tweet", "B"},
	{"journal.load_ms_per_kbatch", "ms"},
	{"triclustd.json_decode_us_per_ktweet", "us"},
	{"triclustd.roundtrip_us_per_batch", "us"},
	{"triclustd.self_us_per_batch", "us"},
	{"triclustd.self_share", "fraction"},
	{"triclustd.read_200_us", "us"},
	{"triclustd.read_304_us", "us"},
	{"triclustd.read_304_share", "fraction"},
	{"triclustd.startup_empty_ms", "ms"},
	{"triclustd.recovery_replayed_batches", "count"},
	{"triclustd.recovery_ms_per_replayed_batch", "ms"},
	{"triclustd.peak_rss_mb", "MB"},
	{"triclustd.write_bytes_per_tweet", "B"},
	{"triclustd.build_s", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"loadgen.cpu_share", "fraction"},
	{"noise.all_over_quiet", "ratio"},
	{"noise.trace_overhead", "ratio"},
	{"trace.accounted_share", "fraction"},
}...)

// workloads, in the order a full run makes them.
var workloads = []string{"online_replay", "offline_refit", "daemon_ingest", "daemon_mixed"}
