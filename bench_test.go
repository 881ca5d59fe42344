// Package artemis's root benchmark suite regenerates every table and
// figure of the paper's evaluation (Section 4) against the simulated
// JVM profiles, plus ablation benchmarks for the design choices called
// out in DESIGN.md. Absolute numbers differ from the paper (our VMs
// are simulators, scaled accordingly); the benchmarks assert and
// report the *shape* of each result.
//
// Regenerate everything:
//
//	go test -bench=. -benchmem .
//
// The cmd/artemis and cmd/space tools produce the same tables
// interactively with larger budgets.
package artemis

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"artemis/internal/fuzz"
	"artemis/internal/harness"
	"artemis/internal/jonm"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
	"artemis/internal/lang/sem"
	"artemis/internal/profiles"
	"artemis/internal/vm"
)

func mustProfile(b *testing.B, name string) *profiles.Profile {
	b.Helper()
	p, err := profiles.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// ---------------------------------------------------------------------------
// Figure 1 — the compilation space of a simple program
// ---------------------------------------------------------------------------

// BenchmarkFigure1CompilationSpace enumerates all 16 compilation
// choices of the paper's 4-call example and checks they agree.
func BenchmarkFigure1CompilationSpace(b *testing.B) {
	src := `class T {
        int baz() { return 1; }
        int bar() { return 2; }
        int foo() { return bar() + baz(); }
        void main() { print(foo()); }
    }`
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	prof := mustProfile(b, "hotspotlike")
	methods := []string{"main", "foo", "bar", "baz"}

	var choices []harness.SpaceChoice
	for i := 0; i < b.N; i++ {
		choices = harness.EnumerateSpace(prof, prog, methods, false)
		for _, c := range choices {
			if c.Output.Term != vm.TermNormal || c.Output.Lines[0] != "3" {
				b.Fatalf("choice %s returned %v %v, want 3", c.Label(methods), c.Output.Term, c.Output.Lines)
			}
		}
	}
	b.ReportMetric(float64(len(choices)), "choices")
	if b.N == 1 || testing.Verbose() {
		fmt.Fprintf(os.Stderr, "\nFigure 1: %d compilation choices, all print 3 (consistent space)\n", len(choices))
		for i, c := range choices {
			fmt.Fprintf(os.Stderr, "  #%-2d %s -> %s\n", i+1, c.Label(methods), c.Output.Lines[0])
		}
	}
}

// ---------------------------------------------------------------------------
// Tables 1 and 2 — bug statistics and affected components
// ---------------------------------------------------------------------------

// campaignFor runs one scaled-down campaign for benchmarks.
func campaignFor(prof *profiles.Profile, seeds, iters int, confirm bool) *harness.CampaignStats {
	return harness.RunCampaign(harness.CampaignOptions{
		Options: harness.Options{
			Profile: prof, MaxIter: iters, Buggy: true, ConfirmAndFix: confirm,
		},
		Seeds: seeds,
	})
}

// BenchmarkTable1BugStatistics regenerates Table 1: per simulated JVM,
// distinct findings, duplicates, confirmed, fixed, and the
// mis-compilation/crash/performance split.
func BenchmarkTable1BugStatistics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var all []*harness.CampaignStats
		total := 0
		for _, prof := range profiles.All() {
			stats := campaignFor(prof, 20, 6, true)
			all = append(all, stats)
			total += len(stats.Distinct)
		}
		if total == 0 {
			b.Fatal("campaigns found no bugs at all")
		}
		if i == 0 {
			fmt.Fprintf(os.Stderr, "\n%s\n", harness.FormatTable1(all))
		}
		b.ReportMetric(float64(total), "distinct-bugs")
	}
}

// BenchmarkTable2Components regenerates Table 2: crash counts per JIT
// component; the expected shape is loop/GVN-heavy for hotspotlike and
// GC-heavy for openj9like.
func BenchmarkTable2Components(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var all []*harness.CampaignStats
		for _, name := range []string{"hotspotlike", "openj9like"} {
			all = append(all, campaignFor(mustProfile(b, name), 25, 8, false))
		}
		if i == 0 {
			fmt.Fprintf(os.Stderr, "\n%s\n", harness.FormatTable2(all))
		}
		crashes := 0
		for _, s := range all {
			for _, n := range s.ByComponent() {
				crashes += n
			}
		}
		b.ReportMetric(float64(crashes), "crash-components")
	}
}

// BenchmarkCampaignParallel measures the parallel campaign engine at
// 1, 4, and NumCPU workers over one fixed workload. Stats are
// byte-identical across worker counts (asserted by the harness
// determinism tests); only wall-clock should move. On multi-core
// hardware expect near-linear scaling — per-seed work shares nothing.
func BenchmarkCampaignParallel(b *testing.B) {
	prof := mustProfile(b, "openj9like")
	counts := []int{1, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	for _, w := range counts {
		if seen[w] {
			continue
		}
		seen[w] = true
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stats := harness.RunCampaign(harness.CampaignOptions{
					Options: harness.Options{Profile: prof, MaxIter: 6, Buggy: true},
					Seeds:   30,
					Workers: w,
				})
				b.ReportMetric(stats.Throughput(), "vm-runs/s")
				b.ReportMetric(float64(len(stats.Distinct)), "distinct")
			}
		})
	}
}

// BenchmarkCampaignMetricsOverhead runs BenchmarkCampaignParallel's
// workers=1 workload with metrics collection off and on. The disabled
// path must be in the noise (stats are nil-guarded at compile/deopt/GC
// events and cost nothing per interpreted step); the enabled path adds
// trace recording plus counter updates and stays within a few percent.
func BenchmarkCampaignMetricsOverhead(b *testing.B) {
	prof := mustProfile(b, "openj9like")
	for _, metrics := range []bool{false, true} {
		name := "metrics=off"
		if metrics {
			name = "metrics=on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stats := harness.RunCampaign(harness.CampaignOptions{
					Options: harness.Options{
						Profile: prof, MaxIter: 6, Buggy: true,
						CollectMetrics: metrics,
					},
					Seeds:   30,
					Workers: 1,
				})
				b.ReportMetric(stats.Throughput(), "vm-runs/s")
				if metrics && stats.Metrics == nil {
					b.Fatal("metrics run produced no CampaignMetrics")
				}
			}
		})
	}
}

// BenchmarkCampaignJournalOverhead runs the same workload with the
// seed-outcome journal off and on. Journaling serializes one JSON
// record per merged seed on the reducer goroutine and flushes it —
// O(seeds) work against O(seeds × mutants × runs) VM execution, so
// the cost must be in the noise next to the metrics overhead above.
func BenchmarkCampaignJournalOverhead(b *testing.B) {
	prof := mustProfile(b, "openj9like")
	for _, journaled := range []bool{false, true} {
		name := "journal=off"
		if journaled {
			name = "journal=on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := harness.CampaignOptions{
					Options: harness.Options{
						Profile: prof, MaxIter: 6, Buggy: true,
						CollectMetrics: true,
					},
					Seeds:   30,
					Workers: 1,
				}
				if journaled {
					opts.JournalPath = filepath.Join(b.TempDir(), "bench.journal")
				}
				stats, err := harness.RunResumableCampaign(opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(stats.Throughput(), "vm-runs/s")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Table 3 — mutation cost
// ---------------------------------------------------------------------------

// BenchmarkTable3MutationCostSingleRun measures the paper's
// "Single-run" row: starting cold from source text (parse + analyze +
// mutate + print) for every mutant.
func BenchmarkTable3MutationCostSingleRun(b *testing.B) {
	seedSrc := ast.Print(fuzz.Generate(fuzz.Options{Seed: 1}))
	prof := mustProfile(b, "hotspotlike")
	times := benchMutation(b, func(i int) {
		prog, err := parser.Parse(seedSrc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sem.Analyze(prog); err != nil {
			b.Fatal(err)
		}
		mutant, _, err := jonm.Mutate(prog, &jonm.Config{
			Min: prof.SynMin, Max: prof.SynMax, StepMax: prof.SynStepMax,
			Rand: rand.New(rand.NewSource(int64(i))),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = ast.Print(mutant)
	})
	reportCostRow(b, "Single-run", times)
}

// BenchmarkTable3MutationCostLargeScale measures the "Large-scale"
// row: the engine is booted once — the seed is parsed and analyzed a
// single time, its sem.Info handed to every mutation via SeedInfo —
// and then driven to generate many mutants, each validity-checked
// incrementally (AnalyzeDelta re-checks only mutated methods). This is
// exactly how harness.Validate drives jonm in a campaign.
func BenchmarkTable3MutationCostLargeScale(b *testing.B) {
	prog := fuzz.Generate(fuzz.Options{Seed: 1})
	info := sem.MustAnalyze(prog)
	prof := mustProfile(b, "hotspotlike")
	times := benchMutation(b, func(i int) {
		mutant, _, err := jonm.Mutate(prog, &jonm.Config{
			Min: prof.SynMin, Max: prof.SynMax, StepMax: prof.SynStepMax,
			Rand:     rand.New(rand.NewSource(int64(i))),
			SeedInfo: info,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = mutant
	})
	reportCostRow(b, "Large-scale", times)
}

func benchMutation(b *testing.B, one func(i int)) []time.Duration {
	var times []time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		one(i)
		times = append(times, time.Since(start))
	}
	return times
}

func reportCostRow(b *testing.B, label string, times []time.Duration) {
	if len(times) == 0 {
		return
	}
	sorted := append([]time.Duration(nil), times...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, t := range sorted {
		sum += t
	}
	mean := sum / time.Duration(len(sorted))
	median := sorted[len(sorted)/2]
	b.ReportMetric(float64(mean.Microseconds()), "mean-µs")
	b.ReportMetric(float64(median.Microseconds()), "median-µs")
	b.ReportMetric(float64(sorted[0].Microseconds()), "min-µs")
	b.ReportMetric(float64(sorted[len(sorted)-1].Microseconds()), "max-µs")
	fmt.Fprintf(os.Stderr, "Table 3 row %-12s mean=%v median=%v min=%v max=%v (n=%d)\n",
		label, mean, median, sorted[0], sorted[len(sorted)-1], len(sorted))
}

// ---------------------------------------------------------------------------
// Table 4 — comparative study and throughput
// ---------------------------------------------------------------------------

// BenchmarkTable4Comparative regenerates the comparative study: CSE
// versus the traditional default-vs-fully-compiled oracle on the
// openj9like profile. The expected shape: CSE flags strictly more
// seeds, with a small overlap.
func BenchmarkTable4Comparative(b *testing.B) {
	prof := mustProfile(b, "openj9like")
	for i := 0; i < b.N; i++ {
		stats := harness.RunCampaign(harness.CampaignOptions{
			Options:     harness.Options{Profile: prof, MaxIter: 8, Buggy: true},
			Seeds:       60,
			Comparative: true,
		})
		if i == 0 {
			fmt.Fprintf(os.Stderr, "\n%s\n", harness.FormatTable4(stats))
		}
		b.ReportMetric(float64(stats.CSESeeds), "cse-seeds")
		b.ReportMetric(float64(stats.TradSeeds), "trad-seeds")
		b.ReportMetric(float64(stats.BothSeeds), "both-seeds")
		b.ReportMetric(stats.Throughput(), "vm-runs/s")
	}
}

// ---------------------------------------------------------------------------
// Ablations (design choices from DESIGN.md)
// ---------------------------------------------------------------------------

// BenchmarkAblationMaxIter varies MAX_ITER (the paper picks 8 as the
// cost/effectiveness sweet spot).
func BenchmarkAblationMaxIter(b *testing.B) {
	prof := mustProfile(b, "openj9like")
	for _, iters := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stats := harness.RunCampaign(harness.CampaignOptions{
					Options: harness.Options{Profile: prof, MaxIter: iters, Buggy: true},
					Seeds:   15,
				})
				b.ReportMetric(float64(stats.CSESeeds), "flagged-seeds")
				b.ReportMetric(float64(len(stats.Distinct)), "distinct")
				b.ReportMetric(float64(stats.Runs), "vm-runs")
			}
		})
	}
}

// BenchmarkAblationMutators compares single-mutator configurations
// against the full LI+SW+MI set.
func BenchmarkAblationMutators(b *testing.B) {
	prof := mustProfile(b, "openj9like")
	sets := map[string][]jonm.MutatorName{
		"LI":  {jonm.LI},
		"SW":  {jonm.SW},
		"MI":  {jonm.MI},
		"all": {jonm.LI, jonm.SW, jonm.MI},
	}
	for _, name := range []string{"LI", "SW", "MI", "all"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stats := harness.RunCampaign(harness.CampaignOptions{
					Options: harness.Options{Profile: prof, MaxIter: 6, Buggy: true, Mutators: sets[name]},
					Seeds:   15,
				})
				b.ReportMetric(float64(stats.CSESeeds), "flagged-seeds")
				b.ReportMetric(float64(len(stats.Distinct)), "distinct")
			}
		})
	}
}

// BenchmarkAblationSkeletons toggles statement-skeleton synthesis
// (Section 3.4 argues skeletons diversify control/data flow inside
// synthesized loops).
func BenchmarkAblationSkeletons(b *testing.B) {
	prof := mustProfile(b, "hotspotlike")
	for _, disabled := range []bool{false, true} {
		name := "with-skeletons"
		if disabled {
			name = "without-skeletons"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stats := harness.RunCampaign(harness.CampaignOptions{
					Options: harness.Options{Profile: prof, MaxIter: 6, Buggy: true, DisableSkeletons: disabled},
					Seeds:   20,
				})
				b.ReportMetric(float64(len(stats.Distinct)), "distinct")
				b.ReportMetric(float64(stats.CSESeeds), "flagged-seeds")
			}
		})
	}
}

// BenchmarkAblationThresholds compares the default profile thresholds
// against lowered ones (the Section 4.5 "workaround" the authors
// tried and abandoned: lower thresholds compile more methods, which
// can shrink the explorable space).
func BenchmarkAblationThresholds(b *testing.B) {
	base := mustProfile(b, "openj9like")
	lowered := *base
	lowered.Name = "openj9like-lowthresh"
	lowered.EntryThresholds = []int64{30, 120}
	lowered.OSRThresholds = []int64{40, 150}
	for _, prof := range []*profiles.Profile{base, &lowered} {
		prof := prof
		b.Run(prof.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stats := harness.RunCampaign(harness.CampaignOptions{
					Options: harness.Options{Profile: prof, MaxIter: 6, Buggy: true},
					Seeds:   15,
				})
				b.ReportMetric(float64(len(stats.Distinct)), "distinct")
				b.ReportMetric(float64(stats.CSESeeds), "flagged-seeds")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks
// ---------------------------------------------------------------------------

// BenchmarkInterpreter measures raw bytecode interpretation speed.
func BenchmarkInterpreter(b *testing.B) {
	src := `class T { void main() {
        long a = 0;
        for (int i = 0; i < 200000; i++) { a += i ^ (a >> 3); }
        print(a);
    } }`
	prog, _ := parser.Parse(src)
	bp := harness.Compile(prog)
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		res := vm.Run(vm.Config{}, bp)
		steps = res.Steps
	}
	b.ReportMetric(float64(steps), "steps/run")
}

// BenchmarkTieredExecution measures the same workload under tiered
// JIT execution (OSR + tier-up included).
func BenchmarkTieredExecution(b *testing.B) {
	src := `class T { void main() {
        long a = 0;
        for (int i = 0; i < 200000; i++) { a += i ^ (a >> 3); }
        print(a);
    } }`
	prog, _ := parser.Parse(src)
	bp := harness.Compile(prog)
	prof := mustProfile(b, "hotspotlike")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := prof.VMConfig(false)
		vm.Run(cfg, bp)
	}
}

// phiLoopSrc keeps eight locals live around a hot loop, so every back
// edge resolves eight phis with a run of edge moves: the traffic that
// dominates compiled-code execution in campaigns. cmd/bench runs the
// same program for the "compiled" entry of BENCH_campaign.json.
const phiLoopSrc = `class T {
    long run(int n) {
        long a = 1L; long b = 2L; long c = 3L; long d = 4L;
        int e = 5; int f = 6; int g = 7; int h = 8;
        for (int i = 0; i < n; i++) {
            long t = a;
            a = b + i;
            b = c ^ t;
            c = d - (a >> 3);
            d = t;
            int u = e;
            e = f + i;
            f = g ^ u;
            g = h * 3;
            h = u;
        }
        return a + b + c + d + e + f + g + h;
    }
    void main() { print(run(100000)); }
}`

// BenchmarkCompiledExecutor measures the compiled-code executor on
// phiLoopSrc forced through the optimizing tier, with a reused Scratch
// as in campaigns; steps/run pins the work measured.
func BenchmarkCompiledExecutor(b *testing.B) {
	prog, err := parser.Parse(phiLoopSrc)
	if err != nil {
		b.Fatal(err)
	}
	bp := harness.Compile(prog)
	prof := mustProfile(b, "hotspotlike")
	scratch := &vm.Scratch{}
	b.ReportAllocs()
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		cfg := prof.VMConfig(false)
		cfg.Scratch = scratch
		cfg.Policy = &vm.ForcedPolicy{
			Tier:       2,
			Choice:     func(string, int64) vm.ForceChoice { return vm.ForceCompile },
			DisableOSR: true,
		}
		steps = vm.Run(cfg, bp).Steps
	}
	b.ReportMetric(float64(steps), "steps/run")
}

// BenchmarkJITCompileTier2 measures optimizing-tier compilation
// latency on a fuzzed method corpus.
func BenchmarkJITCompileTier2(b *testing.B) {
	prog := fuzz.Generate(fuzz.Options{Seed: 5})
	bp := harness.Compile(prog)
	prof := mustProfile(b, "hotspotlike")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := prof.VMConfig(false)
		cfg.Policy = &vm.ForcedPolicy{
			Tier:       2,
			Choice:     func(string, int64) vm.ForceChoice { return vm.ForceCompile },
			DisableOSR: true,
		}
		vm.Run(cfg, bp)
	}
}

// BenchmarkSeedGeneration measures JavaFuzzer-analogue throughput.
func BenchmarkSeedGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fuzz.Generate(fuzz.Options{Seed: int64(i)})
	}
}
