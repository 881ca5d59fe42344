// Command campaignbench is the repository's benchmark: it measures
// bug-hunting campaigns (Algorithm 1 at campaign scale) end to end, and
// layer by layer in a separate traced run, and checks that every
// campaign still finds exactly what it should.
//
// Run it from the repository root:
//
//	bash campaignbench/run.sh --workload hunt-short --seed 3 --seconds 20 --trace 0
//	bash campaignbench/run.sh --workload triage-openj9 --seed 3 --trace 1
//	bash campaignbench/run.sh                     # every workload, seed 0
//
// run.sh builds this module (its own go.mod, which resolves the
// repository through a replace directive) into .bench_build/ and runs
// it. Standard output carries one "workload<TAB>metric<TAB>value<TAB>unit"
// line per metric and, last, one JSON object with the keys correct,
// attempted, failed and metrics. The command exits non-zero on any
// incorrect output. A report with the host stamp (GOOS, GOARCH, NumCPU,
// GOMAXPROCS, Go version, vcs.revision), the resolved workload and
// every round lands in .bench_build/reports/ (or at -out). The program
// is Linux-only: it reads child resource usage from wait4 and kills
// children with their parent.
//
// # Workloads
//
// Every workload is a closed loop with one client: rounds run one after
// another, each a fresh child process of this binary that calls
// harness.RunResumableCampaign with MAX_ITER 8 and two seed workers
// (the reference host has two vCPUs) over one block of consecutive
// fuzzer seeds, with tracing off.
//
//   - hunt-hotspot: hotspotlike, 8-seed blocks, 16M-step budget.
//     Compiled code carries most of the work, and runs that end at
//     StepLimit take most of the VM time, so executor and step-budget
//     changes show here.
//   - hunt-short: hotspotlike, 20-seed blocks, 2M-step budget. Runs are
//     about 4x shorter, so JIT compilation and the front end (generate,
//     analyze, mutate, compile) take about 3x the share of VM time they
//     take on hunt-hotspot; that is still only 4%.
//   - triage-openj9: openj9like, 3-seed blocks, 2M-step budget, with the
//     journal, the findings corpus (auto-reduction under the default
//     keep budget) and blame in a per-round directory. It is the only
//     workload that reduces, localizes and writes to disk; every block
//     re-triages the findings it sees first, on the campaign's single
//     reducer goroutine, which leaves the second worker CPU half idle.
//   - hunt-art: artlike, 6-seed blocks, 16M-step budget. There is one
//     JIT tier with high thresholds and 20k-50k-iteration loops, so no
//     tier-2 compilation runs: a pass-pipeline change must not move it,
//     while tier-1 code carries the load.
//
// The harness's default budget of 120M steps is not used: at that
// budget a handful of seeds decide a run's time (one seed can take
// 14 s), and no run of a minute or less is steady.
//
// Measured traffic, from traced runs at seeds 0-3 of commit 65e551d on
// a 2-vCPU x86-64 Linux VM (Go 1.24; median, with the range over the
// four seeds where it matters). Shares of VM time are of vm.run_ms,
// reduce and blame shares are of the traced child's CPU time, and CPU
// utilization is of the untraced campaign over its two workers.
//
//	                            hunt-hotspot      hunt-short        triage-openj9     hunt-art
//	VM steps in compiled code   0.59              0.60              0.67              0.63
//	VM time, executor self      0.91              0.89              0.91              0.92
//	VM time, runs at StepLimit  0.65 (0.54-0.76)  0.58 (0.55-0.59)  0.41 (0.24-0.60)  0.49 (0.36-0.67)
//	VM time, JIT compilation    0.011             0.029             0.034             0.003
//	VM time, front end          0.004             0.015             0.019             0.003
//	tier-2 share of compile     0.20              0.17              0.16              0
//	VM time per run             69 ms             15 ms             13 ms             91 ms
//	CPU, reduction              0                 0                 0.80 (0.74-0.83)  0
//	CPU, blame                  0                 0                 0.02 (0.01-0.06)  0
//	CPU utilization             0.83              0.95              0.55              0.88
//
// So every workload spends most of its VM time in compiled code and in
// runs that end at StepLimit, a 2M-step budget included; JIT
// compilation and the front end stay below 5% everywhere, so a change
// to them alone cannot move an end-to-end metric by its bound; and on
// triage, reduction dominates. layers.json lists an end-to-end metric
// for a per-layer metric only where that layer takes at least a tenth
// of the time on the workloads it names.
//
// # Suites and seeds
//
// The fuzzer's per-seed cost is heavy-tailed, so the same window over
// a fresh seed range spreads 10-33% in throughput from one range to the
// next. Each workload instead has a suite (suite.json): consecutive
// blocks from its offset adding up to about 40 s of campaign time,
// recorded with -suite-out. Recording leaves out blocks on which an
// operation fails, makes five passes over the rest, and keeps each
// block's median campaign time and child CPU time; whole passes let a
// phase of load on the host weigh on every block alike.
//
// A run at --seed S draws a random half of the suite, seeded by S,
// among the halves whose recorded time, throughput and CPU time per
// mutant are within 2% of the whole suite's, and runs it in a seeded
// order. The programs thus
// depend on S while the work stays balanced. --seconds sets the run's
// length in whole passes over the drawn half, by the recorded times (a
// half took about 20 s on the reference host), so a run's input is a
// function of S and --seconds alone: the parent commit and a change
// measure the same programs.
//
// # End-to-end metrics (--trace 0)
//
//   - mutants_per_s: mutants validated per second of campaign time,
//     summed over rounds; the bug-hunting throughput at fixed input.
//   - cpu_ms_per_mutant: child CPU time (user+sys) per mutant.
//   - peak_rss_mb: child peak RSS, median over rounds.
//   - setup_s: wall time from the parent's exec of a child to the
//     campaign's start, median over nine set-up-only children and every
//     round.
//
// Failed operations are counted against attempted ones in the JSON's
// attempted and failed fields. Seeds and triaged findings are attempted.
// A Harness Internal Error, a corpus entry stored unreduced because it
// does not re-trigger, and a blame verdict of not-reproduced or
// budget-exhausted are failures.
//
// # Output checks
//
// A run is correct when all of the following hold:
//
//   - every round's distinct-finding signature set (count and sha256)
//     equals its block's golden in suite.json, at every seed;
//   - no Harness Internal Error occurs;
//   - every reported finding re-verifies without the harness: the seed
//     is regenerated, its mutation sequence replayed, and the symptom
//     checked on the seeded-defect VM against the interpreter, which
//     does not involve the JIT under test;
//   - triage left a corpus entry for every finding and blame for every
//     crash;
//   - in a traced run, the replica reproduced the campaign exactly.
//
// # Traced run (--trace 1)
//
// A traced run replays the first rounds of the seed's draw (a fixed
// number per workload, so two commits replay the same inputs). For each
// round it runs the untraced campaign child, then a traced child that
// drives the round's seeds serially through the public entry points in
// Algorithm 1 order: fuzz.Generate, sem.MustAnalyze, bytecode.MustCompile
// and vm.Run for the seed; then, per mutant, jonm.Mutate,
// bytecode.MustCompileDelta and vm.Run; on a timeout, the interpreter
// rerun and the traced rerun that names the hot method. The mutation RNG
// is seeded with seedID*7919 as in the harness. Inside vm.Run the JIT is
// wrapped in a timing vm.JITCompiler. Its compiled code is wrapped in
// timing vm.CompiledCode values that forward CompileStats, and they pass
// a counting vm.Env, so calls that compiled code makes back into the VM
// are subtracted from executor self time. On triage each first-seen
// finding is reduced with reduce.ReduceChecked under the exported
// harness.KeepConfig signature predicates and a counted
// harness.DefaultReduceBudget cap, then localized with blame.Localize.
// The replica must reproduce the campaign's Runs, Mutants, duplicate
// count, every distinct finding (signature, seed, mutant, count) and, on
// triage, every corpus entry's reduction and blame.json. Any difference
// makes the run incorrect. It stands in for tracing inside the program
// until that exists.
//
// Per-layer metrics are totals over the traced rounds unless they say
// otherwise; harness.cpu_util, harness.first_finding_s, journal.bytes,
// corpus.entries and the go.* metrics come from the untraced campaign
// children of the same rounds. Layers that some workload never enters
// report shares instead of times: jit.compile_tier2_share of compile
// time, and reduce.cpu_share and blame.cpu_share of the traced child's
// CPU time.
// harness.first_finding_s is the median over rounds of the time from a
// campaign's start to its first distinct finding, triage included; it
// varies too much from block to block to bound. Self times are a span's
// duration minus its children's, so jit.exec_self_ms excludes the
// callees compiled code re-enters the VM for, and vm.interp_self_ms is
// what remains of vm.run once compilation and executor self time are
// taken out. trace.self_coverage is the sum of all self times over the
// traced child's CPU time, and trace.cpu_overhead_share is the traced
// child's CPU over the untraced campaign's, minus one. layers.json
// names, for every per-layer metric, the end-to-end metrics and
// workloads it should move. The micro-benchmarks of EXPERIMENTS.md stay
// in cmd/bench.
//
// The replica and the output checks copy harness rules that are not
// exported (signatures, components, the performance-finding and triage
// rules), so run.sh runs this module's tests before every traced run:
// they check the replica against real campaigns and the timing wrappers
// for transparency, and a failure stops the run.
//
// Spans are kept in memory and written when the run ends, to
// .bench_build/trace/<workload>-seed<S>.json (or -spans). The file
// holds one list of spans per round. Each span has a name (seed,
// vm.run, jit.compile, reduce, keep, blame), the fuzzer seed it served,
// its parent's index (-1 at the top), and start and duration in ns
// since the traced child started. A vm.run span carries its role (seed,
// mutant, perf-rerun, perf-trace), how it ended, its steps, and the
// executor self time, executor calls and compile time accumulated
// inside it. Compiled calls are not spans of their own. A jit.compile
// span carries the method index, tier, OSR flag, instruction count and
// whether it failed.
//
// # Claiming a change
//
// Build the parent commit and the change in two checkouts. For each
// workload the change touches, run at least ten pairs at seeds not used
// while writing it, alternating which side runs first. Report each
// side's median and quartiles. Claim a gain only when the change wins
// at least nine pairs in ten and the medians differ by more than the
// parent's interquartile distance. Show with a traced run of both
// sides where the saving appears. For every other workload and
// end-to-end metric, show the change's median is no worse than the
// parent's by more than the metric's bound in BENCHMARK.json. The
// reference host is shared: one block's campaign time varies 11-15%
// from run to run, and under load from other tenants whole runs slow
// down by up to 2x for minutes at a time, so use pairs, not single
// runs. baseline.json records two interleaved sets of ten runs of the
// parent commit: their medians agree within 7%, and their spreads are
// 0.03-0.18.
package main
