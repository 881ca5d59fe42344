package main

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions (the tests check they agree).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the campaign sees; an untraced
// run reports exactly these.
var endToEnd = []metricDef{
	{"mutants_per_s", "1/s", "higher"},
	{"cpu_ms_per_mutant", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of single layers; a traced run reports
// exactly these.
var perLayer = []metricDef{
	{"jit.exec_self_ms", "ms", "lower"},
	{"jit.exec_calls", "count", "lower"},
	{"jit.env_calls", "count", "lower"},
	{"jit.deopts", "count", "lower"},
	{"jit.compile_ms", "ms", "lower"},
	{"jit.compile_tier2_share", "share", "lower"},
	{"jit.compile_calls", "count", "lower"},
	{"jit.compile_failed", "count", "lower"},
	{"jit.code_instrs", "count", "lower"},
	{"vm.run_calls", "count", "lower"},
	{"vm.run_ms", "ms", "lower"},
	{"vm.interp_self_ms", "ms", "lower"},
	{"vm.steps_interp", "count", "lower"},
	{"vm.steps_compiled", "count", "lower"},
	{"vm.gc_cycles", "count", "lower"},
	{"vm.perf_rerun_ms", "ms", "lower"},
	{"vm.timeout_runs", "count", "lower"},
	{"vm.timeout_ms", "ms", "lower"},
	{"vm.timeout_share", "share", "lower"},
	{"fuzz.generate_ms", "ms", "lower"},
	{"sem.analyze_ms", "ms", "lower"},
	{"jonm.mutate_ms", "ms", "lower"},
	{"jonm.methods_mutated", "count", "lower"},
	{"bytecode.compile_ms", "ms", "lower"},
	{"bytecode.compile_delta_ms", "ms", "lower"},
	{"bytecode.methods_reused_share", "share", "higher"},
	{"reduce.cpu_share", "share", "lower"},
	{"reduce.keep_evals", "count", "lower"},
	{"reduce.keep_share", "share", "lower"},
	{"reduce.keep_accept_share", "share", "higher"},
	{"reduce.size_ratio", "share", "lower"},
	{"blame.cpu_share", "share", "lower"},
	{"blame.probe_runs", "count", "lower"},
	{"blame.localized_share", "share", "higher"},
	{"harness.seed_ms_p50", "ms", "lower"},
	{"harness.seed_ms_p90", "ms", "lower"},
	{"harness.seed_samples", "count", "higher"},
	{"harness.cpu_util", "share", "higher"},
	{"harness.first_finding_s", "s", "lower"},
	{"journal.bytes", "bytes", "lower"},
	{"corpus.entries", "count", "higher"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_cpu_share", "share", "lower"},
	{"trace.cpu_overhead_share", "share", "lower"},
	{"trace.self_coverage", "share", "higher"},
}

// endToEndMetrics derives the end-to-end metrics of an untraced run.
// Throughput and cost are totals over every round; set-up time and
// peak RSS are medians over processes.
func endToEndMetrics(setupNs []int64, rounds []*roundResult) map[string]float64 {
	var mutants, elapsedNs, cpuNs int64
	var rss, setup []float64
	for _, ns := range setupNs {
		setup = append(setup, float64(ns)/1e9)
	}
	for _, u := range rounds {
		mutants += int64(u.Mutants)
		elapsedNs += u.ElapsedNs
		cpuNs += u.Usage.CPUNs
		rss = append(rss, float64(u.Usage.MaxRSSKB)/1024)
		setup = append(setup, float64(u.SetupNs)/1e9)
	}
	return map[string]float64{
		"mutants_per_s":     share(float64(mutants), float64(elapsedNs)/1e9),
		"cpu_ms_per_mutant": share(nsToMs(cpuNs), float64(mutants)),
		"peak_rss_mb":       summarize(rss).P50,
		"setup_s":           summarize(setup).P50,
	}
}

// layerMetrics derives the per-layer metrics of a traced run from its
// traced rounds and the untraced rounds they replayed. Times of layers
// that some workload never enters (tier-2 compilation, reduction,
// blame) are shares, so no reported time is a constant zero.
func layerMetrics(rounds []*roundResult, traced []*tracedResult) map[string]float64 {
	var t layerTotals
	self := map[string]int64{}
	var tracedCPU, selfSum int64
	var seedMs []float64
	for _, tr := range traced {
		addTotals(&t, &tr.Totals)
		for k, v := range tr.Totals.SelfNs {
			self[k] += v
			selfSum += v
		}
		for _, ns := range tr.Totals.SeedNs {
			seedMs = append(seedMs, nsToMs(ns))
		}
		tracedCPU += tr.Usage.CPUNs
	}
	var cpuNs, elapsedNs, journal, entries int64
	var gcCPU, totalCPU, allocBytes float64
	var first []float64
	for _, u := range rounds {
		if u.FirstFindingNs >= 0 {
			first = append(first, float64(u.FirstFindingNs)/1e9)
		}
		cpuNs += u.Usage.CPUNs
		elapsedNs += u.ElapsedNs
		journal += u.JournalBytes
		entries += int64(len(u.Corpus))
		gcCPU += u.Runtime.GCCPUSeconds
		totalCPU += u.Runtime.TotalCPUSeconds
		allocBytes += float64(u.Runtime.AllocBytes)
	}
	seeds := summarize(seedMs)
	return map[string]float64{
		"jit.exec_self_ms":        nsToMs(self["jit.exec"]),
		"jit.exec_calls":          float64(t.ExecCalls),
		"jit.env_calls":           float64(t.EnvCalls),
		"jit.deopts":              float64(t.Deopts),
		"jit.compile_ms":          nsToMs(self["jit.compile"]),
		"jit.compile_tier2_share": share(float64(t.CompileTier2Ns), float64(self["jit.compile"])),
		"jit.compile_calls":       float64(t.CompileCalls),
		"jit.compile_failed":      float64(t.CompileFailed),
		"jit.code_instrs":         float64(t.CodeInstrs),

		"vm.run_calls":                  float64(t.RunCalls),
		"vm.run_ms":                     nsToMs(t.RunNs),
		"vm.interp_self_ms":             nsToMs(self["vm.run"] + self["vm.env_call"]),
		"vm.steps_interp":               float64(t.StepsInterp),
		"vm.steps_compiled":             float64(t.StepsCompiled),
		"vm.gc_cycles":                  float64(t.GCCycles),
		"vm.perf_rerun_ms":              nsToMs(t.PerfRerunNs),
		"vm.timeout_runs":               float64(t.TimeoutRuns),
		"vm.timeout_ms":                 nsToMs(t.TimeoutNs),
		"vm.timeout_share":              share(float64(t.TimeoutNs), float64(t.RunNs)),
		"fuzz.generate_ms":              nsToMs(self["fuzz.generate"]),
		"sem.analyze_ms":                nsToMs(self["sem.analyze"]),
		"jonm.mutate_ms":                nsToMs(self["jonm.mutate"]),
		"jonm.methods_mutated":          float64(t.MethodsMutated),
		"bytecode.compile_ms":           nsToMs(self["bytecode.compile"]),
		"bytecode.compile_delta_ms":     nsToMs(self["bytecode.compile_delta"]),
		"bytecode.methods_reused_share": share(float64(t.MethodsReused), float64(t.MutantMethods)),

		"reduce.cpu_share":         share(float64(t.ReduceNs), float64(tracedCPU)),
		"reduce.keep_evals":        float64(t.KeepEvals),
		"reduce.keep_share":        share(float64(self["reduce.keep"]), float64(t.ReduceNs)),
		"reduce.keep_accept_share": share(float64(t.KeepAccepts), float64(t.KeepEvals)),
		"reduce.size_ratio":        share(float64(t.SizeAfter), float64(t.SizeBefore)),
		"blame.cpu_share":          share(float64(t.BlameNs), float64(tracedCPU)),
		"blame.probe_runs":         float64(t.BlameRuns),
		"blame.localized_share":    share(float64(t.BlameLocalized), float64(t.Blamed)),

		"harness.seed_ms_p50":     seeds.P50,
		"harness.seed_ms_p90":     seeds.P90,
		"harness.seed_samples":    float64(seeds.N),
		"harness.cpu_util":        share(float64(cpuNs), float64(elapsedNs)*workers),
		"harness.first_finding_s": summarize(first).P50,
		"journal.bytes":           float64(journal),
		"corpus.entries":          float64(entries),
		"go.alloc_mb":             allocBytes / 1e6,
		"go.gc_cpu_share":         share(gcCPU, totalCPU),

		"trace.cpu_overhead_share": share(float64(tracedCPU), float64(cpuNs)) - 1,
		"trace.self_coverage":      share(float64(selfSum), float64(tracedCPU)),
	}
}

func addTotals(dst, src *layerTotals) {
	dst.RunCalls += src.RunCalls
	dst.RunNs += src.RunNs
	dst.StepsInterp += src.StepsInterp
	dst.StepsCompiled += src.StepsCompiled
	dst.GCCycles += src.GCCycles
	dst.Deopts += src.Deopts
	dst.PerfRerunNs += src.PerfRerunNs
	dst.TimeoutRuns += src.TimeoutRuns
	dst.TimeoutNs += src.TimeoutNs
	dst.ExecCalls += src.ExecCalls
	dst.EnvCalls += src.EnvCalls
	dst.CompileCalls += src.CompileCalls
	dst.CompileFailed += src.CompileFailed
	dst.CompileTier2Ns += src.CompileTier2Ns
	dst.CodeInstrs += src.CodeInstrs
	dst.MethodsMutated += src.MethodsMutated
	dst.MethodsReused += src.MethodsReused
	dst.MutantMethods += src.MutantMethods
	dst.ReduceNs += src.ReduceNs
	dst.KeepEvals += src.KeepEvals
	dst.KeepAccepts += src.KeepAccepts
	dst.SizeBefore += src.SizeBefore
	dst.SizeAfter += src.SizeAfter
	dst.BlameNs += src.BlameNs
	dst.BlameRuns += src.BlameRuns
	dst.Blamed += src.Blamed
	dst.BlameLocalized += src.BlameLocalized
}
