// Campaign observability: deterministic aggregation of per-run
// vm.ExecStats and JIT-trace coverage into campaign-level metrics.
//
// The paper's argument depends on campaigns *actually* exploring the
// compilation space (Section 5.4 reports how often mutants drive
// methods through different temperature vectors). These metrics make
// that measurable: a campaign whose runs never leave the interpreter,
// or whose seeds all take a single JIT trace, has silently degraded
// into the plain differential testing baseline of Section 4.3.
//
// Everything exported here is deterministic: per-seed metrics are
// merged in seed order by the PR-1 reducer, every counter is a pure
// function of the seeded run, and wall-clock quantities are excluded,
// so the -metrics JSON is byte-identical for any -workers value.

package harness

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"artemis/internal/vm"
)

// SeedMetrics is one seed's contribution to campaign metrics: the
// merged ExecStats of its metered validation runs plus
// exploration-coverage accounting over their JIT traces.
type SeedMetrics struct {
	// Runs counts metered VM invocations (the seed's reference run,
	// mutant runs, and timeout-disambiguation reruns — the same runs
	// Result.Runs counts; corpus reduction and blame probes run after
	// Validate and are not metered).
	Runs int64 `json:"runs"`
	// Exec is the merged execution metrics of those runs.
	Exec vm.ExecStats `json:"exec"`
	// RunsByMaxTier[t] counts runs whose hottest observed temperature
	// was t; index 0 is "never left the interpreter" (Definition 3.2).
	RunsByMaxTier []int64 `json:"runs_by_max_tier"`
	// DistinctTraces is the number of distinct JIT-trace keys
	// (Definition 3.3) among the seed's runs. Mutants are
	// JoNM-neutral, so >= 2 means the seed genuinely explored more
	// than one point of its compilation space.
	DistinctTraces int64 `json:"distinct_traces"`
}

// seedMeter accumulates SeedMetrics during one Validate call.
type seedMeter struct {
	m         SeedMetrics
	traceKeys map[string]bool
}

func newSeedMeter() *seedMeter {
	return &seedMeter{traceKeys: map[string]bool{}}
}

// record folds one run's result into the meter.
func (sm *seedMeter) record(r *vm.Result) {
	sm.m.Runs++
	sm.m.Exec.Merge(r.Stats)
	tier := 0
	if r.Trace != nil {
		tier = r.Trace.MaxTemp()
		sm.traceKeys[r.Trace.Key()] = true
	}
	for len(sm.m.RunsByMaxTier) <= tier {
		sm.m.RunsByMaxTier = append(sm.m.RunsByMaxTier, 0)
	}
	sm.m.RunsByMaxTier[tier]++
}

func (sm *seedMeter) finish() *SeedMetrics {
	sm.m.DistinctTraces = int64(len(sm.traceKeys))
	return &sm.m
}

// CampaignMetrics aggregates SeedMetrics across a whole campaign.
type CampaignMetrics struct {
	// MeteredSeeds / MeteredRuns count the seeds and VM invocations
	// that contributed metrics. Seeds discarded for exceeding
	// StepLimit still contribute their timed-out runs; seeds cut off
	// by the wall-clock SeedTimeout contribute nothing.
	MeteredSeeds int64 `json:"metered_seeds"`
	MeteredRuns  int64 `json:"metered_runs"`

	// Exec is the campaign-wide merge of per-run ExecStats
	// (PeakHeapWords is the max over runs, everything else sums).
	Exec vm.ExecStats `json:"exec"`

	// RunsByMaxTier[t] counts runs whose hottest temperature was t;
	// TierReachFractions derives the Section 5.4-style coverage view.
	RunsByMaxTier []int64 `json:"runs_by_max_tier"`

	// DistinctTracesTotal sums each seed's distinct JIT-trace keys;
	// MultiTraceSeeds counts seeds that took >= 2 distinct traces —
	// the seeds for which compilation space exploration actually
	// happened (a campaign where this is 0 is doing plain
	// differential testing).
	DistinctTracesTotal int64 `json:"distinct_traces_total"`
	MultiTraceSeeds     int64 `json:"multi_trace_seeds"`
}

// merge folds one seed's metrics in (called by the campaign reducer in
// seed order; every operation is order-independent regardless).
func (m *CampaignMetrics) merge(sm *SeedMetrics) {
	if sm == nil {
		return
	}
	m.MeteredSeeds++
	m.MeteredRuns += sm.Runs
	m.Exec.Merge(&sm.Exec)
	for len(m.RunsByMaxTier) < len(sm.RunsByMaxTier) {
		m.RunsByMaxTier = append(m.RunsByMaxTier, 0)
	}
	for i, n := range sm.RunsByMaxTier {
		m.RunsByMaxTier[i] += n
	}
	m.DistinctTracesTotal += sm.DistinctTraces
	if sm.DistinctTraces >= 2 {
		m.MultiTraceSeeds++
	}
}

// TierReachFractions returns, per temperature t, the fraction of
// metered runs whose hottest temperature was exactly t (index 0 =
// interpreter-only runs).
func (m *CampaignMetrics) TierReachFractions() []float64 {
	if m.MeteredRuns == 0 {
		return nil
	}
	out := make([]float64, len(m.RunsByMaxTier))
	for i, n := range m.RunsByMaxTier {
		out[i] = float64(n) / float64(m.MeteredRuns)
	}
	return out
}

// AvgDistinctTraces returns the mean number of distinct JIT traces per
// metered seed.
func (m *CampaignMetrics) AvgDistinctTraces() float64 {
	if m.MeteredSeeds == 0 {
		return 0
	}
	return float64(m.DistinctTracesTotal) / float64(m.MeteredSeeds)
}

// metricsEntry is the JSON shape of one campaign in a metrics report.
type metricsEntry struct {
	Profile            string           `json:"profile"`
	Seeds              int              `json:"seeds"`
	Mutants            int              `json:"mutants"`
	VMRuns             int              `json:"vm_runs"`
	DiscardedSeeds     int              `json:"discarded_seeds"`
	DistinctFindings   int              `json:"distinct_findings"`
	Duplicates         int              `json:"duplicate_manifestations"`
	Metrics            *CampaignMetrics `json:"metrics"`
	TierReachFractions []float64        `json:"tier_reach_fractions,omitempty"`
}

// MetricsReport renders the campaigns' metrics as deterministic,
// indented JSON: map keys are sorted by encoding/json, every number is
// a pure function of the seeded campaign, and wall-clock fields are
// excluded — so the bytes are identical for any worker count.
func MetricsReport(stats []*CampaignStats) ([]byte, error) {
	entries := make([]metricsEntry, 0, len(stats))
	for _, s := range stats {
		e := metricsEntry{
			Profile:          s.Profile,
			Seeds:            s.Seeds,
			Mutants:          s.Mutants,
			VMRuns:           s.Runs,
			DiscardedSeeds:   s.DiscardedSeeds,
			DistinctFindings: len(s.Distinct),
			Duplicates:       s.Duplicates,
			Metrics:          s.Metrics,
		}
		if s.Metrics != nil {
			e.TierReachFractions = s.Metrics.TierReachFractions()
		}
		entries = append(entries, e)
	}
	if len(entries) == 1 {
		return json.MarshalIndent(entries[0], "", "  ")
	}
	return json.MarshalIndent(entries, "", "  ")
}

// FormatMetrics renders a human-readable exploration-coverage summary
// for one or more campaigns (the Section 5.4 analogue: how thoroughly
// did runs leave the interpreter, and how many compilation-space
// points did each seed visit).
func FormatMetrics(stats []*CampaignStats) string {
	var b strings.Builder
	b.WriteString("Exploration-coverage metrics\n")
	for _, s := range stats {
		m := s.Metrics
		fmt.Fprintf(&b, "\n%s:\n", s.Profile)
		if m == nil {
			b.WriteString("  (metrics collection disabled)\n")
			continue
		}
		fmt.Fprintf(&b, "  metered: %d seeds, %d runs\n", m.MeteredSeeds, m.MeteredRuns)
		steps := m.Exec.InterpSteps + m.Exec.CompiledSteps
		if steps > 0 {
			fmt.Fprintf(&b, "  steps: %d interpreted (%.1f%%), %d compiled (%.1f%%)\n",
				m.Exec.InterpSteps, 100*float64(m.Exec.InterpSteps)/float64(steps),
				m.Exec.CompiledSteps, 100*float64(m.Exec.CompiledSteps)/float64(steps))
		}
		for i, f := range m.TierReachFractions() {
			label := "interpreter only"
			if i > 0 {
				label = fmt.Sprintf("reached tier %d", i)
			}
			fmt.Fprintf(&b, "  runs %-18s %6.1f%% (%d)\n", label+":", 100*f, m.RunsByMaxTier[i])
		}
		fmt.Fprintf(&b, "  compilations by tier: %v (OSR %d, failed %d)\n",
			m.Exec.CompilationsByTier, m.Exec.OSRCompilations, m.Exec.FailedCompilations)
		fmt.Fprintf(&b, "  uncommon traps: %d, deopts: %d%s\n",
			m.Exec.UncommonTraps, m.Exec.Deopts, formatReasons(m.Exec.DeoptsByReason))
		fmt.Fprintf(&b, "  GC cycles: %d, peak heap: %d words\n", m.Exec.GCCycles, m.Exec.PeakHeapWords)
		fmt.Fprintf(&b, "  distinct JIT traces: %d total, %.2f avg/seed, %d seeds with >= 2 traces\n",
			m.DistinctTracesTotal, m.AvgDistinctTraces(), m.MultiTraceSeeds)
		if len(m.Exec.OptsByPass) > 0 {
			keys := make([]string, 0, len(m.Exec.OptsByPass))
			for k := range m.Exec.OptsByPass {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, 0, len(keys))
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%s=%d", k, m.Exec.OptsByPass[k]))
			}
			fmt.Fprintf(&b, "  JIT opts by pass: %s\n", strings.Join(parts, " "))
		}
	}
	return b.String()
}

func formatReasons(m map[string]int64) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s: %d", k, m[k]))
	}
	return " (" + strings.Join(parts, ", ") + ")"
}
