// Command artemis is the end-to-end JIT-compiler validation driver:
// Algorithm 1 of the paper, at campaign scale, against the simulated
// JVM profiles. It regenerates the paper's evaluation tables.
//
// Usage:
//
//	artemis -profile hotspotlike -seeds 200        # one campaign
//	artemis -table1 -seeds 150                     # Table 1 across all profiles (runs blame)
//	artemis -table2 -seeds 150                     # Table 2 (crash components)
//	artemis -table4 -seeds 400                     # Table 4 (CSE vs traditional)
//	artemis -selfcheck -seeds 50                   # correct VM: expect 0 findings
//	artemis -workers 8 -seeds 1000                 # 8 parallel seed workers
//	artemis -metrics out.json -seeds 200           # exploration-coverage metrics
//	artemis -journal run.journal -seeds 100000     # crash-safe campaign
//	artemis -journal run.journal -resume ...       # continue after a crash
//	artemis -corpus corpus/ -seeds 1000            # persist + auto-reduce findings
//	artemis -blame -corpus corpus/ -seeds 1000     # + localize guilty passes / minimal space
//
// Campaign output — including the -metrics JSON — is byte-identical
// for any -workers value: seeds run in parallel but merge
// deterministically in seed order. The same holds across -resume: an
// interrupted campaign resumed from its journal reproduces exactly
// the stats an uninterrupted run would have produced.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"artemis/internal/harness"
	"artemis/internal/profiles"
	"artemis/internal/profiling"
)

func main() {
	profileName := flag.String("profile", "hotspotlike", "VM profile for single-campaign mode")
	seeds := flag.Int("seeds", 100, "number of seed programs")
	iters := flag.Int("iters", 8, "mutants per seed (MAX_ITER; the paper uses 8)")
	seedBase := flag.Int64("seedbase", 0, "first fuzzer seed")
	steps := flag.Int64("steps", 0, "per-run step budget (0 = default)")
	workers := flag.Int("workers", 0, "parallel seed workers (0 = all CPUs); any value yields identical output")
	seedTimeout := flag.Duration("seedtimeout", 0, "per-seed wall-clock budget (0 = none; non-zero trades determinism for liveness)")
	quiet := flag.Bool("quiet", false, "suppress progress lines on stderr")
	table1 := flag.Bool("table1", false, "regenerate Table 1 (all profiles; runs blame for the confirmed and fixed rows)")
	table2 := flag.Bool("table2", false, "regenerate Table 2 (crash components)")
	table4 := flag.Bool("table4", false, "regenerate Table 4 (comparative study, openj9like)")
	selfcheck := flag.Bool("selfcheck", false, "run against the CORRECT VM; any finding is a bug in this repository")
	examples := flag.Bool("examples", false, "print example bug-triggering mutants")
	metricsOut := flag.String("metrics", "", "collect execution metrics and write the JSON report to this file (byte-identical for any -workers value)")
	journalPath := flag.String("journal", "", "stream per-seed outcomes to this crash-safe journal file")
	resume := flag.Bool("resume", false, "resume an interrupted campaign from -journal, skipping already-journaled seeds")
	corpusDir := flag.String("corpus", "", "persist every novel finding (seed, mutant, auto-reduced reproducer) under this directory")
	reduceBudget := flag.Int("reducebudget", 0, "keep-predicate evaluations per finding for in-campaign auto-reduction (0 = default, negative disables)")
	blameOn := flag.Bool("blame", false, "localize every first-seen finding: bisect the guilty pass set, shrink the forced-compilation method set and isolate the seeded defect; prints the behavior-derived Table 2")
	blameBudget := flag.Int("blamebudget", 0, "probe VM runs per fault localization (0 = default)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	flag.Parse()

	var progress func(harness.Progress)
	if !*quiet {
		progress = harness.StderrProgress(2 * time.Second)
	}
	// Every mode runs these options; each sets only its profile and
	// what else sets it apart.
	opts := harness.CampaignOptions{
		Options: harness.Options{
			MaxIter: *iters, Buggy: true,
			StepLimit: *steps, CollectMetrics: *metricsOut != "",
		},
		Seeds: *seeds, SeedBase: *seedBase,
		Workers: *workers, SeedTimeout: *seedTimeout, Progress: progress,
		JournalPath: *journalPath, Resume: *resume,
		CorpusDir: *corpusDir, ReduceBudget: *reduceBudget,
		Blame: *blameOn || *table1, BlameBudget: *blameBudget,
	}
	prof, err := checkFlags(opts, *profileName, *table1 || *table2 || *table4)
	if err != nil {
		fmt.Fprintln(os.Stderr, "artemis:", err)
		os.Exit(2)
	}

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	switch {
	case *table1 || *table2:
		var all []*harness.CampaignStats
		for _, prof := range profiles.All() {
			fmt.Fprintf(os.Stderr, "campaign: %s (%d seeds x %d mutants)...\n", prof.Name, *seeds, *iters)
			opts.Profile = prof
			all = append(all, harness.RunCampaign(opts))
		}
		if *table1 {
			fmt.Println(harness.FormatTable1(all))
		}
		if *table2 {
			fmt.Println(harness.FormatTable2(all))
		}
		if *blameOn {
			fmt.Println(harness.FormatBlameTable(all))
		}
		writeMetrics(*metricsOut, all)
	case *table4:
		prof, err := profiles.Get("openj9like")
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "comparative campaign: openj9like (%d seeds)...\n", *seeds)
		opts.Profile, opts.Comparative = prof, true
		stats := harness.RunCampaign(opts)
		fmt.Println(harness.FormatTable4(stats))
		if *blameOn {
			fmt.Println(harness.FormatBlameTable([]*harness.CampaignStats{stats}))
		}
		writeMetrics(*metricsOut, []*harness.CampaignStats{stats})
	default:
		opts.Profile, opts.Buggy = prof, !*selfcheck
		stats, err := harness.RunResumableCampaign(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("profile %s: %d seeds, %d mutants, %d VM runs in %s (%.2f runs/s)\n",
			stats.Profile, stats.Seeds, stats.Mutants, stats.Runs,
			stats.Elapsed.Round(1e6), stats.Throughput())
		fmt.Printf("discarded (timeout) seeds: %d\n", stats.DiscardedSeeds)
		fmt.Printf("distinct findings: %d (+%d duplicate manifestations), flagged seeds: %d\n",
			len(stats.Distinct), stats.Duplicates, stats.CSESeeds)
		for _, f := range stats.Distinct {
			extra := ""
			if f.Blame != nil && f.Blame.FixedBy != "" {
				extra = " fixed-by=" + f.Blame.FixedBy
			}
			fmt.Printf("  [%s] %-36s x%d seed=%d detail=%q%s\n", f.Kind, f.Component, f.Count, f.SeedID, f.Detail, extra)
		}
		if *blameOn {
			fmt.Println(harness.FormatBlameTable([]*harness.CampaignStats{stats}))
		}
		if *selfcheck {
			if len(stats.Distinct) > 0 {
				fmt.Println("SELF-CHECK FAILED: the correct VM produced discrepancies")
				stopProf() // os.Exit skips defers
				os.Exit(1)
			}
			fmt.Println("self-check passed: no false positives")
		}
		if *examples {
			for i, ex := range stats.Examples {
				fmt.Printf("\n--- example mutant %d ---\n%s", i, ex)
			}
		}
		writeMetrics(*metricsOut, []*harness.CampaignStats{stats})
	}
}

// checkFlags rejects settings that name no campaign, before anything
// runs or is written: a negative seed count, step budget, worker count,
// blame budget or seed timeout (0 picks the default for each), fewer
// than one mutant per seed, -resume without -journal, -journal or
// -corpus with a table sweep, and an unknown -profile. It returns the
// single-campaign profile (nil for a table sweep, which ignores
// -profile).
func checkFlags(opts harness.CampaignOptions, profile string, table bool) (*profiles.Profile, error) {
	switch {
	case opts.Seeds < 0:
		return nil, fmt.Errorf("-seeds %d: must not be negative", opts.Seeds)
	case opts.MaxIter < 1:
		return nil, fmt.Errorf("-iters %d: must be at least 1", opts.MaxIter)
	case opts.StepLimit < 0:
		return nil, fmt.Errorf("-steps %d: must not be negative (0 = default)", opts.StepLimit)
	case opts.Workers < 0:
		return nil, fmt.Errorf("-workers %d: must not be negative (0 = all CPUs)", opts.Workers)
	case opts.BlameBudget < 0:
		return nil, fmt.Errorf("-blamebudget %d: must not be negative (0 = default)", opts.BlameBudget)
	case opts.SeedTimeout < 0:
		return nil, fmt.Errorf("-seedtimeout %s: must not be negative (0 = none)", opts.SeedTimeout)
	case opts.Resume && opts.JournalPath == "":
		return nil, fmt.Errorf("-resume requires -journal")
	case table && (opts.JournalPath != "" || opts.CorpusDir != ""):
		return nil, fmt.Errorf("-journal/-corpus apply to single-campaign mode, not table sweeps")
	case table:
		return nil, nil
	}
	return profiles.Get(profile)
}

// writeMetrics writes the deterministic metrics JSON to path and prints
// the human-readable coverage summary. No-op when path is empty.
func writeMetrics(path string, all []*harness.CampaignStats) {
	if path == "" {
		return
	}
	data, err := harness.MetricsReport(all)
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println(harness.FormatMetrics(all))
	fmt.Printf("metrics written to %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "artemis:", err)
	os.Exit(1)
}
