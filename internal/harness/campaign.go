package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"artemis/internal/blame"
	"artemis/internal/lang/ast"
	"artemis/internal/profiles"
	"artemis/internal/vm"
)

// CampaignOptions configures a fuzzing campaign (the Section 4
// evaluation loop): generate seeds, validate each via Algorithm 1,
// and optionally also apply the traditional baseline for the
// comparative study (Table 4).
type CampaignOptions struct {
	Options
	// Seeds is the number of seed programs to generate.
	Seeds int
	// SeedBase offsets the fuzzer seeds (campaigns are deterministic
	// given SeedBase).
	SeedBase int64
	// Comparative also runs the traditional (-Xjit:count=0 analogue)
	// oracle per seed.
	Comparative bool

	// Workers is the number of parallel seed workers (0 = NumCPU).
	// Stats are byte-identical for every worker count: per-seed work
	// is independent (RNG derived from the seed ID, fresh VM and JIT
	// per run) and outcomes are merged in seed order.
	Workers int
	// SeedTimeout, when positive, discards any seed whose whole
	// chain exceeds this wall-clock budget (counted in
	// DiscardedSeeds). Wall-clock cutoffs are timing-dependent;
	// leave at 0 for bit-exact reproducibility (StepLimit already
	// bounds runs deterministically).
	SeedTimeout time.Duration
	// Progress, when non-nil, is called after each merged seed, in
	// seed order, from a single goroutine. See StderrProgress.
	Progress func(Progress)

	// JournalPath, when non-empty, streams every merged seed outcome
	// to an append-only, checksummed journal (internal/journal), making
	// the campaign crash-safe: work merged before a crash, OOM, or
	// SIGKILL is never lost. Persistence requires the error-returning
	// RunResumableCampaign entry point.
	JournalPath string
	// Resume continues an interrupted campaign from JournalPath:
	// already-journaled seeds are not re-run — their cached outcomes
	// replay through the deterministic seed-order merger — so the
	// final CampaignStats and -metrics JSON are byte-identical to an
	// uninterrupted run at any worker count. The journal's header must
	// fingerprint the same campaign configuration. Resuming a
	// non-existent journal starts fresh, so Resume is safe to set
	// unconditionally.
	Resume bool
	// CorpusDir, when non-empty, persists a corpus entry (seed source,
	// mutant source, auto-reduced reproducer, finding detail) for each
	// novel finding signature, as it is first seen. Entries are
	// idempotent across resumes. See corpus.go for the layout.
	CorpusDir string
	// ReduceBudget caps keep-predicate evaluations per finding during
	// in-campaign auto-reduction (0 = DefaultReduceBudget; negative
	// disables reduction, corpus entries then hold only the originals).
	ReduceBudget int
	// Blame enables automatic fault localization (internal/blame) for
	// every first-seen crash/mis-compilation finding: the guilty-pass
	// bisection and minimal compilation-space shrink run on the
	// reducer, attach to DedupFinding.Blame, and (with a CorpusDir)
	// persist as blame.json per entry.
	Blame bool
	// BlameBudget caps probe VM runs per localization
	// (0 = blame.DefaultBudget).
	BlameBudget int

	// seedHook runs at the start of each seed with the seed's stop flag
	// (nil without SeedTimeout); test-only: panic and timeout injection.
	seedHook func(idx int, seedID int64, stop *atomic.Bool)
}

// DedupFinding is a distinct finding with its duplicate count.
type DedupFinding struct {
	Finding
	Count int
	// Blame is the automatic fault localization for this finding; nil
	// unless the campaign ran with CampaignOptions.Blame (or the
	// finding kind has no symptom predicate, e.g. performance).
	Blame *blame.Result
}

// CampaignStats aggregates one campaign.
type CampaignStats struct {
	Profile string
	Seeds   int
	Mutants int
	Runs    int
	Elapsed time.Duration

	// Distinct findings in discovery order and duplicate counts.
	Distinct []DedupFinding
	// Reported = len(Distinct) + Duplicates (every manifestation).
	Duplicates int
	// DiscardedSeeds counts seeds dropped for timing out (Section
	// 4.3 discards programs over the budget).
	DiscardedSeeds int

	// CSESeeds / TradSeeds / BothSeeds: seeds flagged by compilation
	// space exploration, by the traditional baseline, and by both
	// (Table 4's columns).
	CSESeeds  int
	TradSeeds int
	BothSeeds int

	// Example mutant sources (up to 5) for reports / reduction demos.
	Examples []string

	// Metrics aggregates per-run execution metrics and
	// exploration-coverage accounting over all metered seeds; nil
	// unless Options.CollectMetrics. See MetricsReport/FormatMetrics.
	Metrics *CampaignMetrics
}

// ByKind returns distinct-finding counts per kind.
func (cs *CampaignStats) ByKind() map[FindingKind]int {
	m := map[FindingKind]int{}
	for _, f := range cs.Distinct {
		m[f.Kind]++
	}
	return m
}

// ByComponent returns crash counts per JIT component over distinct
// findings (Table 2's view).
func (cs *CampaignStats) ByComponent() map[string]int {
	m := map[string]int{}
	for _, f := range cs.Distinct {
		if f.Kind == CrashFinding {
			m[f.Component]++
		}
	}
	return m
}

// ManifestationsByComponent returns total crash manifestations
// (including duplicates) per component — how often each component is
// hit, complementing the distinct view.
func (cs *CampaignStats) ManifestationsByComponent() map[string]int {
	m := map[string]int{}
	for _, f := range cs.Distinct {
		if f.Kind == CrashFinding {
			m[f.Component] += f.Count
		}
	}
	return m
}

// BlameByPass returns distinct-finding counts keyed by localized
// guilty-pass label ("gcm", "gvn+licm", or a parenthesized verdict
// like "(outside-pass-pipeline)") over findings that were localized.
// This is the behavior-derived Table 2 view: unlike ByComponent it
// uses no injected metadata, only bisection outcomes.
func (cs *CampaignStats) BlameByPass() map[string]int {
	m := map[string]int{}
	for _, f := range cs.Distinct {
		if f.Blame != nil {
			m[f.Blame.PassLabel()]++
		}
	}
	return m
}

// Confirmed counts distinct findings whose reported reproducer
// re-triggers its signature on its own (blame's base probe; the
// analogue of developers reproducing the report). Zero unless the
// campaign ran with Blame.
func (cs *CampaignStats) Confirmed() int {
	n := 0
	for _, f := range cs.Distinct {
		if f.Blame.Reproduced() {
			n++
		}
	}
	return n
}

// Fixed counts distinct findings whose signature goes away when blame
// removes one seeded defect (the analogue of a bug fix landing). Zero
// unless the campaign ran with Blame.
func (cs *CampaignStats) Fixed() int {
	n := 0
	for _, f := range cs.Distinct {
		if f.Blame != nil && f.Blame.FixedBy != "" {
			n++
		}
	}
	return n
}

// Throughput returns VM invocations per second.
func (cs *CampaignStats) Throughput() float64 {
	if cs.Elapsed <= 0 {
		return 0
	}
	return float64(cs.Runs) / cs.Elapsed.Seconds()
}

// RunCampaign drives a full campaign over a pool of Workers
// goroutines (see parallel.go). Per-seed work runs concurrently;
// outcomes are merged in seed order, so the returned stats are
// byte-identical for any worker count. Campaigns that persist state
// (JournalPath/CorpusDir) should call RunResumableCampaign instead;
// here a persistence failure panics.
func RunCampaign(opts CampaignOptions) *CampaignStats {
	stats, err := RunResumableCampaign(opts)
	if err != nil {
		panic(fmt.Sprintf("harness: campaign persistence failed: %v (use RunResumableCampaign to handle this)", err))
	}
	return stats
}

// RunResumableCampaign is RunCampaign plus campaign persistence: it
// opens (or resumes) the seed-outcome journal and the findings corpus
// when configured, replays cached outcomes, and reports persistence
// failures as an error alongside the stats. A mid-campaign journal or
// corpus write failure does not abort the campaign — the in-memory
// stats still complete — but the first such failure is returned so
// callers know crash-safety was lost.
func RunResumableCampaign(opts CampaignOptions) (*CampaignStats, error) {
	opts.Options = opts.Options.withDefaults()
	workers := opts.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	start := time.Now()
	m := newMerger(opts, start)
	var cached map[int]seedOutcome
	if opts.JournalPath != "" {
		var err error
		cached, m.journal, err = openCampaignJournal(opts)
		if err != nil {
			return nil, err
		}
	}
	if opts.CorpusDir != "" {
		c, err := newCorpusWriter(opts, workers)
		if err != nil {
			if m.journal != nil {
				m.journal.Close()
			}
			return nil, err
		}
		m.corpus = c
	}
	if opts.Blame {
		m.blamer = newBlamer(opts)
	}
	runCampaignParallel(opts, workers, m, cached)
	m.stats.Elapsed = time.Since(start)
	if m.journal != nil {
		if err := m.journal.Close(); err != nil && m.persistErr == nil {
			m.persistErr = err
		}
	}
	return m.stats, m.persistErr
}

// ---------------------------------------------------------------------------
// Compilation-space enumeration (Figure 1)
// ---------------------------------------------------------------------------

// SpaceChoice labels one point of a compilation space: which of the
// program's methods execute compiled.
type SpaceChoice struct {
	Compiled map[string]bool
	Output   *vm.Output
	Trace    *vm.JITTrace
	Stats    *vm.ExecStats
}

// Label renders the choice like "main:int foo:jit ...".
func (c *SpaceChoice) Label(methods []string) string {
	parts := make([]string, len(methods))
	for i, m := range methods {
		mode := "int"
		if c.Compiled[m] {
			mode = "jit"
		}
		parts[i] = m + ":" + mode
	}
	return strings.Join(parts, " ")
}

// EnumerateSpace explores the 2^n compilation choices obtained by
// independently interpreting or compiling each listed method — the
// idealized compilation space of Figure 1, realizable here because we
// own the VM (Section 3.2's "straightforward and ideal realization").
// All outputs must agree on a correct VM; set buggy to hunt in the
// seeded-defect VM instead. Choices are evaluated on workers
// goroutines (0 = NumCPU). Each mask gets a fresh VM and JIT; the
// shared compiled program is read-only, and results land at their mask
// index, so the returned slice is identical for any worker count.
func EnumerateSpace(prof *profiles.Profile, prog *ast.Program, methods []string, buggy bool, workers int) []SpaceChoice {
	bp := Compile(prog)
	n := len(methods)
	total := 1 << n
	choices := make([]SpaceChoice, total)
	runMask := func(mask int, scratch *vm.Scratch) {
		compiled := map[string]bool{}
		for i, m := range methods {
			if mask&(1<<i) != 0 {
				compiled[m] = true
			}
		}
		cfg := prof.VMConfig(buggy)
		cfg.Policy = &vm.ForcedPolicy{Tier: prof.MaxTier, Compile: func(m string, _ int64) bool { return compiled[m] }}
		cfg.Scratch = scratch
		cfg.RecordTrace = true
		cfg.CollectStats = true
		res := vm.Run(cfg, bp)
		choices[mask] = SpaceChoice{Compiled: compiled, Output: res.Output, Trace: res.Trace, Stats: res.Stats}
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		scratch := &vm.Scratch{}
		for mask := 0; mask < total; mask++ {
			runMask(mask, scratch)
		}
		return choices
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := &vm.Scratch{} // per-worker, never shared
			for {
				mask := int(next.Add(1)) - 1
				if mask >= total {
					return
				}
				runMask(mask, scratch)
			}
		}()
	}
	wg.Wait()
	return choices
}

// ---------------------------------------------------------------------------
// Table rendering
// ---------------------------------------------------------------------------

// FormatTable1 renders the Table 1 analogue from per-profile stats.
func FormatTable1(stats []*CampaignStats) string {
	var b strings.Builder
	b.WriteString("Table 1: statistics of detected JIT-compiler bugs\n")
	fmt.Fprintf(&b, "%-28s", "")
	for _, s := range stats {
		fmt.Fprintf(&b, "%14s", s.Profile)
	}
	fmt.Fprintf(&b, "%10s\n", "Total")
	row := func(label string, get func(*CampaignStats) int) {
		fmt.Fprintf(&b, "%-28s", label)
		total := 0
		for _, s := range stats {
			v := get(s)
			total += v
			fmt.Fprintf(&b, "%14d", v)
		}
		fmt.Fprintf(&b, "%10d\n", total)
	}
	row("Reported (distinct)", func(s *CampaignStats) int { return len(s.Distinct) })
	row("Duplicate manifestations", func(s *CampaignStats) int { return s.Duplicates })
	row("Confirmed (reproduced)", func(s *CampaignStats) int { return s.Confirmed() })
	row("Fixed (defect isolated)", func(s *CampaignStats) int { return s.Fixed() })
	row("Mis-compilations", func(s *CampaignStats) int { return s.ByKind()[Miscompilation] })
	row("Crashes", func(s *CampaignStats) int { return s.ByKind()[CrashFinding] })
	row("Performance", func(s *CampaignStats) int { return s.ByKind()[Performance] })
	return b.String()
}

// FormatTable2 renders the Table 2 analogue: crash counts per JIT
// component for the given profiles.
func FormatTable2(stats []*CampaignStats) string {
	var b strings.Builder
	b.WriteString("Table 2: JIT components affected by reported crashes\n")
	for _, s := range stats {
		fmt.Fprintf(&b, "\n%s:\n", s.Profile)
		comps := s.ByComponent()
		keys := make([]string, 0, len(comps))
		for k := range comps {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if comps[keys[i]] != comps[keys[j]] {
				return comps[keys[i]] > comps[keys[j]]
			}
			return keys[i] < keys[j]
		})
		manif := s.ManifestationsByComponent()
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-36s %d distinct (%d manifestations)\n", k, comps[k], manif[k])
		}
		if len(keys) == 0 {
			b.WriteString("  (no crashes)\n")
		}
	}
	return b.String()
}

// FormatBlameTable renders the behavior-derived Table 2 analogue:
// distinct findings grouped by the guilty pass set that automatic
// bisection localized them to, plus one detail line per localized
// finding (corpus entry name, guilty passes, minimal forced-compilation
// set). Where ByComponent/FormatTable2 reads the injected defect tags,
// this table is computed purely from observed behaviour — on the
// seeded-bug corpus the two views are expected to agree.
func FormatBlameTable(stats []*CampaignStats) string {
	var b strings.Builder
	b.WriteString("Table 2 (behavior-derived): guilty passes localized by bisection\n")
	for _, s := range stats {
		fmt.Fprintf(&b, "\n%s:\n", s.Profile)
		byPass := s.BlameByPass()
		keys := make([]string, 0, len(byPass))
		for k := range byPass {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if byPass[keys[i]] != byPass[keys[j]] {
				return byPass[keys[i]] > byPass[keys[j]]
			}
			return keys[i] < keys[j]
		})
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-36s %d distinct\n", k, byPass[k])
		}
		if len(keys) == 0 {
			b.WriteString("  (no localized findings)\n")
			continue
		}
		b.WriteString("  localizations:\n")
		for _, f := range s.Distinct {
			if f.Blame == nil {
				continue
			}
			space := "(" + f.Blame.SpaceVerdict + ")"
			if f.Blame.SpaceVerdict == blame.VerdictMinimal {
				space = "{" + strings.Join(f.Blame.MinimalMethods, ",") + "}"
			}
			fmt.Fprintf(&b, "    %-52s %-24s space %s\n", EntryName(f.Signature), f.Blame.PassLabel(), space)
			if f.Blame.IRInvariant != "" {
				fmt.Fprintf(&b, "      IR invariant broken: %s\n", f.Blame.IRInvariant)
			}
		}
	}
	return b.String()
}

// FormatTable4 renders the comparative study (Table 4).
func FormatTable4(s *CampaignStats) string {
	var b strings.Builder
	b.WriteString("Table 4: comparative study, CSE vs. traditional approach\n")
	fmt.Fprintf(&b, "  %-10s %-10s %-8s %-8s %-8s\n", "#Seeds", "#Mutants", "CSE", "Tra.", "Both")
	fmt.Fprintf(&b, "  %-10d %-10d %-8d %-8d %-8d\n", s.Seeds, s.Mutants, s.CSESeeds, s.TradSeeds, s.BothSeeds)
	fmt.Fprintf(&b, "  throughput: %.2f VM invocations/s (%d runs in %s)\n",
		s.Throughput(), s.Runs, s.Elapsed.Round(time.Millisecond))
	if s.CSESeeds > 0 {
		onlyCSE := s.CSESeeds - s.BothSeeds
		fmt.Fprintf(&b, "  %.1f%% of CSE-flagged seeds cannot be caught by the traditional oracle\n",
			100*float64(onlyCSE)/float64(s.CSESeeds))
	}
	return b.String()
}
