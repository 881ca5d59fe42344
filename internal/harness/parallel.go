// Parallel campaign engine. Seeds are embarrassingly parallel — each
// seed's generate → mutate → validate → comparative-baseline chain is
// keyed only by SeedBase+i and touches no shared mutable state (every
// run builds a fresh VM and JIT; package-level tables are read-only).
// A pool of workers fans seeds out to goroutines and a single reducer
// merges per-seed outcomes **in seed order**, buffering out-of-order
// arrivals, so CampaignStats — dedup order of Distinct, Examples
// selection, Table 1/2/4 output — is byte-identical to a sequential
// run for any worker count.

package harness

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"artemis/internal/fuzz"
	"artemis/internal/journal"
	"artemis/internal/vm"
)

// ---------------------------------------------------------------------------
// Per-seed execution
// ---------------------------------------------------------------------------

// seedOutcome carries everything one seed contributes to the campaign:
// its validation result plus the comparative-baseline verdict. It is
// the unit flowing from workers to the reducer — and, JSON-encoded as
// a seedRecord (persist.go), the unit of journal durability.
type seedOutcome struct {
	idx      int // 0-based seed index (merge order key)
	res      *Result
	tradHit  bool
	tradRuns int
	// cached marks an outcome replayed from the journal on resume: it
	// is merged like any other but not journaled again.
	cached bool
}

// runSeed executes one seed end to end: generate, validate (Algorithm
// 1), and optionally the traditional baseline. A panic anywhere in the
// chain is converted into an internal-error finding so one bad seed
// cannot take down a campaign that has hours of work behind it.
// scratch is this worker's reusable VM memory (may be nil) and stop
// the seed's stop flag (may be nil); both are threaded into every run
// of the chain, including the comparative baseline, which also reuses
// the seed program Validate compiled.
func runSeed(opts CampaignOptions, idx int, scratch *vm.Scratch, stop *atomic.Bool) (out seedOutcome) {
	out.idx = idx
	seedID := opts.SeedBase + int64(idx)
	defer func() {
		if r := recover(); r != nil {
			out.res = panicResult(opts.Options.Profile.Name, seedID, r)
			out.tradHit, out.tradRuns = false, 0
		}
	}()
	if opts.seedHook != nil {
		opts.seedHook(idx, seedID, stop)
	}
	seedProg := fuzz.Generate(fuzz.Options{Seed: seedID})

	o := opts.Options
	o.Rand = rand.New(rand.NewSource(seedID * 7919))
	o.scratch = scratch
	o.stop = stop
	out.res = Validate(seedProg, seedID, o)
	if out.res.SeedDiscarded {
		return out
	}
	if opts.Comparative {
		out.tradHit, out.tradRuns = TraditionalDiscrepancy(out.res.seedBP, o)
	}
	return out
}

// panicResult wraps a worker panic as a crash-kind finding attributed
// to the harness itself, so it surfaces in reports (and dedups like
// any crash) instead of killing the campaign.
func panicResult(profile string, seedID int64, r any) *Result {
	detail := fmt.Sprintf("internal error: seed worker panic: %v", r)
	f := Finding{
		Kind:      CrashFinding,
		Profile:   profile,
		Component: "Harness Internal Error",
		Detail:    detail,
		SeedID:    seedID,
		MutantID:  -1,
	}
	f.Signature = signatureOf(CrashFinding, profile, f.Component, detail)
	return &Result{
		Findings:      []Finding{f},
		MutantSources: []string{""}, // no mutant source for an internal error
	}
}

// runSeedBounded applies the optional per-seed wall-clock budget: a
// seed that exceeds it is discarded (feeding DiscardedSeeds, like the
// step-budget discard of Section 4.3). When the budget runs out, the
// timer sets the stop flag every run of the chain polls, so the chain
// winds down within vm.StopPoll steps per remaining run, on this worker
// and with its scratch, and nothing outlives the call. Note that a
// wall-clock cutoff is inherently timing-dependent: campaigns that
// need bit-exact reproducibility should leave SeedTimeout at 0 and
// rely on the deterministic StepLimit instead.
func runSeedBounded(opts CampaignOptions, idx int, scratch *vm.Scratch) seedOutcome {
	if opts.SeedTimeout <= 0 {
		return runSeed(opts, idx, scratch, nil)
	}
	var stop atomic.Bool
	timer := time.AfterFunc(opts.SeedTimeout, func() { stop.Store(true) })
	out := runSeed(opts, idx, scratch, &stop)
	if !timer.Stop() {
		return seedOutcome{idx: idx, res: &Result{SeedDiscarded: true}}
	}
	return out
}

// ---------------------------------------------------------------------------
// Deterministic merge
// ---------------------------------------------------------------------------

// merger folds seed outcomes into CampaignStats. It must only ever be
// fed outcomes in seed order (idx 0, 1, 2, ...): dedup assigns
// Distinct slots first-come, and Examples keeps the first five
// sources, so order is the whole determinism story.
type merger struct {
	opts  CampaignOptions
	stats *CampaignStats
	seen  map[string]int // signature -> index into Distinct
	start time.Time
	done  int

	// Persistence (both optional). journal receives every freshly
	// computed outcome before it folds into the stats; corpus receives
	// every first-seen finding signature. Both run on the reducer
	// goroutine, in seed order, so journals are contiguous prefixes of
	// the campaign and corpus entry creation is deterministic. The
	// first write failure is retained, not fatal: losing persistence
	// must not lose the in-memory campaign too.
	journal    *journal.Writer
	corpus     *corpusWriter
	persistErr error

	// blamer, when non-nil (CampaignOptions.Blame), localizes every
	// first-seen crash/mis-compilation finding on the reducer. Results
	// attach to DedupFinding.Blame and, with a corpus, to blame.json.
	// Never journaled: localization is deterministic given the
	// reproducer, so resumes recompute identical results.
	blamer *blamer
}

func newMerger(opts CampaignOptions, start time.Time) *merger {
	return &merger{
		opts:  opts,
		stats: &CampaignStats{Profile: opts.Options.Profile.Name, Seeds: opts.Seeds},
		seen:  map[string]int{},
		start: start,
	}
}

// add folds one seed's outcome into the stats.
func (m *merger) add(out seedOutcome) {
	res := out.res
	m.done++
	if m.journal != nil && !out.cached {
		if err := appendSeedRecord(m.journal, m.opts, out); err != nil && m.persistErr == nil {
			m.persistErr = err
		}
	}
	m.stats.Runs += res.Runs + out.tradRuns
	m.stats.Mutants += res.Mutants
	if res.Metrics != nil {
		if m.stats.Metrics == nil {
			m.stats.Metrics = &CampaignMetrics{}
		}
		m.stats.Metrics.merge(res.Metrics)
	}
	if m.opts.Progress != nil {
		defer m.emitProgress()
	}
	if res.SeedDiscarded {
		m.stats.DiscardedSeeds++
		return
	}
	if len(res.Findings) > 0 {
		m.stats.CSESeeds++
	}
	// MutantSources pairs 1:1 with Findings ("" = no source, e.g. a
	// seed whose default run crashed). A length mismatch means the
	// Result was built by hand without the invariant; in that case no
	// pairing is trustworthy, so collect no examples rather than
	// mispair a source with a foreign finding.
	paired := len(res.MutantSources) == len(res.Findings)
	for fi, f := range res.Findings {
		src := ""
		if paired {
			src = res.MutantSources[fi]
		}
		if idx, dup := m.seen[f.Signature]; dup {
			m.stats.Duplicates++
			m.stats.Distinct[idx].Count++
			continue
		}
		m.seen[f.Signature] = len(m.stats.Distinct)
		m.stats.Distinct = append(m.stats.Distinct, DedupFinding{Finding: f, Count: 1})
		if src != "" && len(m.stats.Examples) < 5 {
			m.stats.Examples = append(m.stats.Examples, src)
		}
		reproSrc := src
		if m.corpus != nil {
			// First sighting of this signature: persist (and
			// auto-reduce) its reproducer. Runs here, on the reducer,
			// so the corpus never races and entry order is the
			// deterministic discovery order. Replayed findings hit the
			// idempotence check and return immediately (handing back
			// the recorded reproducer for localization below).
			recorded, err := m.corpus.record(f, src)
			if err != nil && m.persistErr == nil {
				m.persistErr = err
			}
			if recorded != "" {
				reproSrc = recorded
			}
		}
		if m.blamer != nil {
			// Localize on the best reproducer (reduced > mutant >
			// seed). Also on the reducer, also deterministic, so the
			// blame table is identical at any worker count.
			if res := m.blamer.localize(f, reproSrc); res != nil {
				m.stats.Distinct[len(m.stats.Distinct)-1].Blame = res
				if m.corpus != nil {
					if err := m.corpus.writeBlame(f.Signature, res); err != nil && m.persistErr == nil {
						m.persistErr = err
					}
				}
			}
		}
	}
	if out.tradHit {
		m.stats.TradSeeds++
		if len(res.Findings) > 0 {
			m.stats.BothSeeds++
		}
	}
}

func (m *merger) emitProgress() {
	m.opts.Progress(Progress{
		SeedsDone: m.done,
		Seeds:     m.opts.Seeds,
		Runs:      m.stats.Runs,
		Findings:  len(m.stats.Distinct),
		Elapsed:   time.Since(m.start),
	})
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

// runCampaignParallel drives opts.Seeds seeds over a pool of workers
// and merges outcomes deterministically. workers must be >= 1.
// Outcomes in cached (journaled by an interrupted run) are not
// re-computed: they replay through the merger at their seed-order
// slot, interleaved with freshly computed ones.
func runCampaignParallel(opts CampaignOptions, workers int, m *merger, cached map[int]seedOutcome) {
	if workers > opts.Seeds && opts.Seeds > 0 {
		workers = opts.Seeds
	}
	if workers <= 1 {
		// Sequential fast path: same runSeed + merge code, no
		// goroutines — workers=1 is the reference the determinism
		// tests compare every other worker count against.
		scratch := &vm.Scratch{}
		for i := 0; i < opts.Seeds; i++ {
			if out, ok := cached[i]; ok {
				m.add(out)
				continue
			}
			m.add(runSeedBounded(opts, i, scratch))
		}
		return
	}

	jobs := make(chan int)
	outs := make(chan seedOutcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := &vm.Scratch{} // per-worker, never shared
			for i := range jobs {
				outs <- runSeedBounded(opts, i, scratch)
			}
		}()
	}
	go func() {
		for i := 0; i < opts.Seeds; i++ {
			if _, ok := cached[i]; ok {
				continue // journaled: replayed by the reducer, not re-run
			}
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(outs)
	}()

	// Reducer: buffer out-of-order arrivals, release in seed order.
	// Cached outcomes pre-populate the buffer so the release loop
	// treats journaled and fresh seeds uniformly.
	pending := map[int]seedOutcome{}
	for i, out := range cached {
		if i < opts.Seeds {
			pending[i] = out
		}
	}
	next := 0
	release := func() {
		for {
			o, ok := pending[next]
			if !ok {
				return
			}
			delete(pending, next)
			m.add(o)
			next++
		}
	}
	release() // a cached prefix merges before any worker reports
	for out := range outs {
		pending[out.idx] = out
		release()
	}
}

// ---------------------------------------------------------------------------
// Progress reporting
// ---------------------------------------------------------------------------

// Progress is a point-in-time snapshot handed to the campaign progress
// hook after each merged seed (in seed order, from a single
// goroutine — hooks need no locking).
type Progress struct {
	SeedsDone int
	Seeds     int
	Runs      int           // VM invocations so far
	Findings  int           // distinct findings so far
	Elapsed   time.Duration // since campaign start
}

// RunsPerSec is the campaign's VM-invocation throughput so far.
func (p Progress) RunsPerSec() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Runs) / p.Elapsed.Seconds()
}

// ETA estimates the remaining wall-clock time from per-seed averages,
// clamped to >= 0: SeedsDone can exceed Seeds (a resumed campaign
// replaying a journal recorded past the currently requested seed
// count), and a negative "remaining time" is never meaningful.
func (p Progress) ETA() time.Duration {
	if p.SeedsDone <= 0 || p.SeedsDone >= p.Seeds {
		return 0
	}
	perSeed := p.Elapsed / time.Duration(p.SeedsDone)
	return perSeed * time.Duration(p.Seeds-p.SeedsDone)
}

// StderrProgress returns a progress hook that logs to stderr at most
// once per interval, plus a final line when the last seed lands.
func StderrProgress(interval time.Duration) func(Progress) {
	var last time.Time
	return func(p Progress) {
		now := time.Now()
		if p.SeedsDone < p.Seeds && now.Sub(last) < interval {
			return
		}
		last = now
		fmt.Fprintf(os.Stderr, "  [%d/%d seeds] %d runs, %.1f runs/s, %d distinct findings, ETA %s\n",
			p.SeedsDone, p.Seeds, p.Runs, p.RunsPerSec(), p.Findings, p.ETA().Round(time.Second))
	}
}

// DefaultWorkers is the worker count used when Workers is 0.
func DefaultWorkers() int { return runtime.NumCPU() }
