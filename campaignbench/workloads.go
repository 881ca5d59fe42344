package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"artemis/internal/bugs"
	"artemis/internal/profiles"
)

// Fixed campaign shape shared by every workload: Algorithm 1 with the
// paper's MAX_ITER, and two seed workers, one per vCPU of the
// reference host.
const (
	maxIter = 8
	workers = 2
)

// workload is one bug-hunting configuration. A run of it is a closed
// loop of rounds: each round is a fresh child process running one
// campaign over one block of RoundSeeds consecutive fuzzer seeds.
type workload struct {
	Name string `json:"name"`
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why     string `json:"why"`
	Profile string `json:"profile"`
	// Offset is the first fuzzer seed of the workload's candidate blocks.
	Offset     int64 `json:"offset"`
	RoundSeeds int   `json:"round_seeds"`
	// StepLimit is the per-run step budget (harness.Options.StepLimit).
	StepLimit int64 `json:"step_limit"`
	// Triage turns on the journal, the findings corpus with
	// auto-reduction, and blame in a per-round directory.
	Triage bool `json:"triage"`
	// TraceRounds is how many rounds a --trace 1 run replays. It is
	// fixed, not time-bounded, so per-layer totals of two commits at
	// one seed cover the same inputs.
	TraceRounds int `json:"trace_rounds"`
}

var workloads = []workload{
	{
		Name:        "hunt-hotspot",
		Why:         "hotspotlike at a 16M-step budget: compiled code runs 91% of VM time, and runs that end at StepLimit take 65% of it",
		Profile:     "hotspotlike",
		Offset:      0,
		RoundSeeds:  8,
		StepLimit:   16_000_000,
		TraceRounds: 2,
	},
	{
		Name:        "hunt-short",
		Why:         "hotspotlike at a 2M-step budget: runs 4x shorter, so JIT compilation and the front end take 4% of VM time, 3x their share on hunt-hotspot",
		Profile:     "hotspotlike",
		Offset:      10_000,
		RoundSeeds:  20,
		StepLimit:   2_000_000,
		TraceRounds: 3,
	},
	{
		Name:        "triage-openj9",
		Why:         "openj9like with journal, corpus auto-reduction and blame: the only workload that reduces and localizes; reduction takes 80% of traced CPU",
		Profile:     "openj9like",
		Offset:      20_000,
		RoundSeeds:  3,
		StepLimit:   2_000_000,
		Triage:      true,
		TraceRounds: 4,
	},
	{
		Name:        "hunt-art",
		Why:         "artlike, one JIT tier with high thresholds: no tier-2 compilation runs, and tier-1 code runs 92% of VM time",
		Profile:     "artlike",
		Offset:      30_000,
		RoundSeeds:  6,
		StepLimit:   16_000_000,
		TraceRounds: 2,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// profile resolves the workload's VM profile and its seeded-defect set.
func (w workload) profile() (*profiles.Profile, bugs.Set, error) {
	p, err := profiles.Get(w.Profile)
	if err != nil {
		return nil, nil, err
	}
	return p, p.BugSet(), nil
}

// Suites. The fuzzer's per-seed cost is heavy-tailed: the same window
// over a fresh seed range spreads 10-33% in throughput from one range
// to the next. Each workload therefore runs a recorded suite of
// blocks. A run at benchmark seed S draws a random half of the suite,
// seeded by S, among the halves whose recorded campaign time,
// throughput and CPU time per mutant are within drawTolerance of half
// the suite's, and runs it in a seeded order. Its programs thus depend on S while its work stays
// balanced. The run's length is set in whole passes over the drawn
// half, so a run's input is a function of the seed and -seconds alone.
// Every block also records its golden signature set.

//go:embed suite.json
var suiteJSON []byte

const drawTolerance = 0.02

// block is one round's input: RoundSeeds fuzzer seeds from SeedBase,
// with the distinct-finding signature set its campaign must produce,
// and the mutants, campaign time and child CPU time it took when the
// suite was recorded.
type block struct {
	SeedBase int64   `json:"seed_base"`
	Count    int     `json:"count"`
	SHA256   string  `json:"sha256"`
	Mutants  int     `json:"mutants"`
	ElapsedS float64 `json:"elapsed_s"`
	CPUS     float64 `json:"cpu_s"`
}

func (b block) sigSet() sigSet { return sigSet{Count: b.Count, SHA256: b.SHA256} }

// suites maps a workload to its recorded blocks.
type suites map[string][]block

func loadSuites(data []byte) (suites, error) {
	s := suites{}
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("suite.json: %w", err)
	}
	return s, nil
}

// draw returns the seed's half of the workload's suite, in run order.
// Halves are drawn at random until one is balanced; when none is found
// the best-balanced one seen is used.
func (s suites) draw(w workload, seed int64) ([]block, error) {
	suite := s[w.Name]
	if len(suite) < 2 {
		return nil, fmt.Errorf("no suite recorded for %s", w.Name)
	}
	var mutants int
	var elapsed, cpu float64
	for _, b := range suite {
		mutants += b.Mutants
		elapsed += b.ElapsedS
		cpu += b.CPUS
	}
	n := len(suite) / 2
	rate := float64(mutants) / elapsed
	cost := cpu / float64(mutants)
	target := elapsed * float64(n) / float64(len(suite))
	rng := rand.New(rand.NewSource(seed))
	var best []block
	bestDev := math.Inf(1)
	for attempt := 0; attempt < 10000 && bestDev > drawTolerance; attempt++ {
		half := make([]block, n)
		var m int
		var e, c float64
		for i, j := range rng.Perm(len(suite))[:n] {
			half[i] = suite[j]
			m += suite[j].Mutants
			e += suite[j].ElapsedS
			c += suite[j].CPUS
		}
		dev := max(math.Abs(e/target-1), math.Abs(float64(m)/e/rate-1), math.Abs(c/float64(m)/cost-1))
		if dev < bestDev {
			best, bestDev = half, dev
		}
	}
	return best, nil
}

// passes is how many whole passes over a drawn half make a run of
// about window, by the times recorded with the suite; at least one.
func (s suites) passes(w workload, window time.Duration) int {
	suite := s[w.Name]
	var elapsed float64
	for _, b := range suite {
		elapsed += b.ElapsedS
	}
	pass := elapsed * float64(len(suite)/2) / float64(len(suite))
	if n := int(math.Round(window.Seconds() / pass)); n > 1 {
		return n
	}
	return 1
}
