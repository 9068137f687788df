package main

// metricDef declares one reported metric. BENCHMARK.json lists the
// same names, units and directions; the self-test holds the two
// together. LAYERS.md maps each layer metric to the end-to-end metric
// and workload it should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are reported by every untraced run (--trace 0).
//
// Two are reported in a form that is never zero. error_budget_digits
// is −log10 of the Lemma-3 error budget per trial, floored at
// budgetFloor (18 digits on the exact per-node engine, whose budget is
// 0): a budget ten times larger reads one digit less, so coarser
// truncation or quantization moves it in proportion on every sweep.
// ok_frac is 1 − (failed operations / attempted). The raw error budget
// per trial and failed fraction are printed beside them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"trials_per_s", "1/s", "higher"},
	{"alloc_b_per_trial", "B", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"error_budget_digits", "digits", "higher"},
	{"ok_frac", "ratio", "higher"},
}

// perLayer are reported by every traced run (--trace 1). A metric of
// a layer that is not on the workload's path reads 0: the layer did
// no work and spent no time.
var perLayer = []metricDef{
	{"sweep.cpu_util", "ratio", "higher"},
	{"sweep.point_s.p50", "s", "lower"},
	{"sweep.point_s.tail", "s", "lower"},
	{"sweep.point_s.tail_pct", "%", "higher"},
	{"sweep.point_s.samples", "count", "higher"},
	{"core.trial_s.p50", "s", "lower"},
	{"core.trial_s.tail", "s", "lower"},
	{"core.trial_s.tail_pct", "%", "higher"},
	{"core.trial_s.samples", "count", "higher"},
	{"core.schedule_s", "s", "lower"},
	{"core.rounds_per_trial", "count", "lower"},
	{"census.stage1.calls", "count", "lower"},
	{"census.stage1_s", "s", "lower"},
	{"census.stage2.calls", "count", "lower"},
	{"census.stage2_s", "s", "lower"},
	{"census.lawcache.hits", "count", "higher"},
	{"census.lawcache.misses", "count", "lower"},
	{"census.lawcache.hit_rate", "ratio", "higher"},
	{"census.quant_budget_per_trial", "prob", "lower"},
	{"census.majority_law_ns.k2", "ns", "lower"},
	{"census.majority_law_ns.k3", "ns", "lower"},
	{"noise.split_counts64_ns", "ns", "lower"},
	{"dist.binomial_pmf_ns", "ns", "lower"},
	{"dist.poisson_survival_ns", "ns", "lower"},
	{"dist.sample_multinomial64_ns", "ns", "lower"},
	{"dist.sample_binomial64_ns", "ns", "lower"},
	{"dist.sample_hypergeometric_ns", "ns", "lower"},
	{"model.run_phase_ns_per_node.batch", "ns", "lower"},
	{"model.run_phase_ns_per_node.parallel", "ns", "lower"},
	{"model.parallel_speedup", "ratio", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}
