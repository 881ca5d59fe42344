package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"artemis/internal/harness"
)

// Child processes. The benchmark re-executes its own binary for every
// round so that set-up time, CPU time and peak RSS are measured per
// process, as a user running the campaign would pay them.

// roundResult is what an untraced round child reports.
type roundResult struct {
	outcome
	SeedBase int64 `json:"seed_base"`
	// SetupNs runs from the parent's exec to the campaign's start.
	SetupNs   int64 `json:"setup_ns"`
	ElapsedNs int64 `json:"elapsed_ns"`
	// FirstFindingNs runs from the campaign's start to the merge of its
	// first distinct finding (including its triage); -1 when none.
	FirstFindingNs int64 `json:"first_finding_ns"`
	// InternalErrors counts Harness Internal Error manifestations.
	InternalErrors int          `json:"internal_errors"`
	JournalBytes   int64        `json:"journal_bytes,omitempty"`
	Runtime        runtimeStats `json:"runtime"`
	Usage          usage        `json:"usage"`
}

// tracedResult is what a traced round child reports.
type tracedResult struct {
	outcome
	Totals layerTotals `json:"totals"`
	Spans  []span      `json:"spans"`
	Usage  usage       `json:"usage"`
}

// usage is a child's resource usage, filled in by the parent.
type usage struct {
	CPUNs    int64 `json:"cpu_ns"`
	MaxRSSKB int64 `json:"max_rss_kb"`
}

// runtimeStats are the Go runtime's own counters at child exit.
type runtimeStats struct {
	GCCPUSeconds    float64 `json:"gc_cpu_s"`
	TotalCPUSeconds float64 `json:"total_cpu_s"`
	AllocBytes      uint64  `json:"alloc_bytes"`
}

func readRuntimeStats() runtimeStats {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	var rs runtimeStats
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		rs.GCCPUSeconds = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		rs.TotalCPUSeconds = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		rs.AllocBytes = samples[2].Value.Uint64()
	}
	return rs
}

// childSpec is how the parent tells a child what to run.
type childSpec struct {
	mode     string // "setup", "round" or "traced"
	w        workload
	seedBase int64
	seeds    int
	t0       int64 // parent's wall clock at exec, Unix ns
	dir      string
}

// runChild executes one child mode and writes its JSON result to stdout.
func runChild(spec childSpec) error {
	var res any
	var err error
	switch spec.mode {
	case "setup", "round":
		res, err = untracedRound(spec)
	case "traced":
		res, err = tracedRound(spec)
	default:
		err = fmt.Errorf("unknown child mode %q", spec.mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// untracedRound runs one campaign through harness.RunResumableCampaign
// with tracing off. In setup mode it returns right before the campaign
// would start, so the parent can sample set-up time cheaply.
func untracedRound(spec childSpec) (*roundResult, error) {
	w := spec.w
	prof, _, err := w.profile()
	if err != nil {
		return nil, err
	}
	opts := harness.CampaignOptions{
		Options: harness.Options{
			Profile: prof, MaxIter: maxIter, StepLimit: w.StepLimit, Buggy: true,
		},
		Seeds:    spec.seeds,
		SeedBase: spec.seedBase,
		Workers:  workers,
	}
	if w.Triage {
		opts.JournalPath = filepath.Join(spec.dir, "campaign.journal")
		opts.CorpusDir = filepath.Join(spec.dir, "corpus")
		opts.Blame = true
	}
	res := &roundResult{SeedBase: spec.seedBase, FirstFindingNs: -1}
	opts.Progress = func(p harness.Progress) {
		if res.FirstFindingNs < 0 && p.Findings > 0 {
			res.FirstFindingNs = int64(p.Elapsed)
		}
	}
	res.SetupNs = time.Now().UnixNano() - spec.t0
	if spec.mode == "setup" {
		return res, nil
	}

	stats, err := harness.RunResumableCampaign(opts)
	if err != nil {
		return nil, err
	}
	res.ElapsedNs = int64(stats.Elapsed)
	res.Seeds = stats.Seeds
	res.Mutants = stats.Mutants
	res.Runs = stats.Runs
	res.Discarded = stats.DiscardedSeeds
	res.Duplicates = stats.Duplicates
	for _, d := range stats.Distinct {
		res.Distinct = append(res.Distinct, finding{
			Kind: d.Kind.String(), Component: d.Component, Signature: d.Signature,
			Detail: d.Detail, SeedID: d.SeedID, MutantID: d.MutantID, Count: d.Count,
		})
		if d.Component == "Harness Internal Error" {
			res.InternalErrors += d.Count
		}
	}
	if w.Triage {
		if res.Corpus, err = readCorpus(opts.CorpusDir, res.Distinct); err != nil {
			return nil, err
		}
		fi, err := os.Stat(opts.JournalPath)
		if err != nil {
			return nil, err
		}
		res.JournalBytes = fi.Size()
	}
	res.Runtime = readRuntimeStats()
	return res, nil
}

// readCorpus reads back the corpus entry of every distinct finding, in
// discovery order.
func readCorpus(dir string, distinct []finding) ([]corpusEntry, error) {
	var entries []corpusEntry
	for _, f := range distinct {
		entryDir := filepath.Join(dir, harness.EntryName(f.Signature))
		data, err := os.ReadFile(filepath.Join(entryDir, "finding.json"))
		if err != nil {
			return nil, fmt.Errorf("corpus entry of %q: %w", f.Signature, err)
		}
		var e corpusEntry
		if err := json.Unmarshal(data, &e); err != nil {
			return nil, fmt.Errorf("corpus entry of %q: %w", f.Signature, err)
		}
		if e.Signature != f.Signature {
			return nil, fmt.Errorf("corpus entry of %q holds signature %q", f.Signature, e.Signature)
		}
		blameDoc, err := os.ReadFile(filepath.Join(entryDir, "blame.json"))
		switch {
		case err == nil:
			e.Blame = string(blameDoc)
		case !errors.Is(err, fs.ErrNotExist):
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// tracedRound replays one round through the traced replica.
func tracedRound(spec childSpec) (res *tracedResult, err error) {
	t := newTracer()
	rep, err := newReplica(spec.w, t)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("traced replica panicked at seed %d: %v", t.seedID, r)
		}
	}()
	out := rep.round(spec.seedBase, spec.seeds)
	rep.tot.SelfNs = map[string]int64{}
	for l, ns := range t.self {
		rep.tot.SelfNs[layerNames[l]] = ns
	}
	return &tracedResult{outcome: out, Totals: rep.tot, Spans: t.spans}, nil
}
