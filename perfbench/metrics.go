package main

import "repro/internal/workload"

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units and directions (checked by TestBenchmarkJSONMatches).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric, and the workload, that a change
	// in this per-layer metric should move.
	Moves string
}

// endToEndDefs are reported by every workload with -trace 0. The
// workload-specific names the metrics stand for are printed beside them:
// ops_per_s is sweep-serve's jobs_per_s, and op_p50_ms and op_tail_ms are
// job_p50_ms and job_tail_ms there; on figures op_p50_ms is figures_s.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// simConfigNames are the two sim-suite configurations.
var simConfigNames = []string{"unified", "decoupled"}

// streamNames are the memory streams the two configurations build.
var streamNames = []string{"lsq", "lvaq"}

// cpuLayers are the buckets of the traced run's CPU profile.
var cpuLayers = []string{
	"core.dispatch", "core.issue", "core.commit", "core.other",
	"memsys", "cache", "sched", "emu", "isa",
	"experiments", "analysis", "serve", "sweep",
	"net_http", "json", "gc", "other",
}

// perLayerDefs are reported by every workload with -trace 1; a layer a
// workload does not exercise reads 0 there.
var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	var d []metricDef
	add := func(name, unit, better, moves string) {
		d = append(d, metricDef{Name: name, Unit: unit, Better: better, Moves: moves})
	}
	const (
		simSetup  = "setup_s (sim-suite)"
		simThru   = "ops_per_s and sim_minst_per_s (sim-suite); op_p50_ms = figures_s (figures); op_tail_ms (sweep-serve), slightly"
		simModel  = "none directly: exact modelled counters that explain the results; a simulator-only change leaves them identical"
		figures   = "op_p50_ms = figures_s and ops_per_s (figures); no change on sim-suite"
		service   = "op_p50_ms and ops_per_s = job_p50_ms and jobs_per_s (sweep-serve); no change on the other workloads"
		sweepMove = "ops_per_s = jobs_per_s and the median sweep_s (sweep-serve)"
	)
	add("error_rate", "ratio", "lower", "failed / attempted operations of the workload; a wrong output counts as a failure")
	add("trace_overhead_frac", "ratio", "lower", "traced median round / untraced median round - 1, within this run")

	add("workload.program_s", "s", "lower", simSetup)
	add("asm.assemble_s", "s", "lower", simSetup)
	add("core.new_s", "s", "lower", simSetup)
	for _, c := range simConfigNames {
		add("core.run_s."+c, "s", "lower", simThru)
		add("core.ns_per_inst."+c, "ns", "lower", simThru)
		add("core.ns_per_cycle."+c, "ns", "lower", simThru+"; ns_per_cycle / ns_per_inst is the modelled IPC, so only a change to the modelled cycles moves them apart")
	}
	for _, w := range workload.Names() {
		add("core.ns_per_inst."+w, "ns", "lower", simThru+"; decoupled configuration only")
	}
	add("core.allocs_per_kinst", "count", "lower", simThru)
	add("emu.minst_per_s", "Minst/s", "higher", "upper bound on the functional emulator's share of sim_minst_per_s (sim-suite)")
	for _, c := range simConfigNames {
		add("core.cycles."+c, "count", "lower", simModel)
		add("core.committed."+c, "count", "higher", simModel)
		add("core.rob_full_stalls."+c, "count", "lower", simModel)
		add("core.misroutes."+c, "count", "lower", simModel)
		for _, s := range streamNames {
			add("memsys."+s+".port_stalls."+c, "count", "lower", simModel)
			add("memsys."+s+".mshr_stalls."+c, "count", "lower", simModel)
			add("memsys."+s+".combined."+c, "count", "higher", simModel)
			add("memsys."+s+".fast_fwd."+c, "count", "higher", simModel)
		}
		for _, cache := range []string{"l1", "lvc", "l2"} {
			add("cache."+cache+".miss_rate."+c, "ratio", "lower", simModel)
		}
	}

	for _, id := range figureIDs() {
		add("experiments."+id+"_s", "s", "lower", figures)
	}
	add("experiments.runner_results", "count", "lower", figures+"; distinct simulations one regeneration runs")
	add("analysis.assign_s", "s", "lower", figures)
	add("analysis.dependences_s", "s", "lower", figures)

	add("serve.overhead_p50_ms", "ms", "lower", service)
	add("serve.sim_p50_ms", "ms", "lower", service)
	add("serve.reuse_frac", "ratio", "higher", service)
	add("serve.repeat_resimulated", "count", "lower", service)
	add("serve.cache_hits", "count", "higher", service)
	add("serve.cache_misses", "count", "lower", service)
	add("serve.cache_writes", "count", "lower", service)
	add("serve.response_bytes", "bytes", "lower", service)
	add("sweep.idle_frac", "ratio", "lower", sweepMove)
	add("sweep.first_dispatch_ms", "ms", "lower", sweepMove)
	add("sweep.hedges_launched", "count", "lower", sweepMove)
	add("sweep.hedge_waste_frac", "ratio", "lower", sweepMove)
	add("sweep.retries", "count", "lower", sweepMove)

	for _, l := range cpuLayers {
		add("cpu."+l, "ratio", "lower", "whichever end-to-end metric of the traced workload the layer blocks; cpu.other and cpu.core.other are unmapped samples")
	}
	return d
}
