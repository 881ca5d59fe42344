// Package harness implements the paper's validation loop (Algorithm
// 1), the discrepancy classification of Section 4.2, the comparative
// "traditional approach" baseline of Section 4.3, and the campaign
// machinery that regenerates Tables 1, 2 and 4.
package harness

import (
	"fmt"
	"math/bits"
	"math/rand"
	"regexp"
	"strings"
	"sync/atomic"

	"artemis/internal/bugs"
	"artemis/internal/bytecode"
	"artemis/internal/jonm"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/sem"
	"artemis/internal/profiles"
	"artemis/internal/vm"
)

// Compile lowers an AST program to bytecode (panicking on internal
// errors: harness inputs are always generator/mutator outputs, which
// are valid by construction).
func Compile(p *ast.Program) *bytecode.Program {
	return bytecode.MustCompile(sem.MustAnalyze(p))
}

// FindingKind classifies a discrepancy per Section 4.2.
type FindingKind int

const (
	Miscompilation FindingKind = iota
	CrashFinding
	Performance
)

func (k FindingKind) String() string {
	switch k {
	case Miscompilation:
		return "mis-compilation"
	case CrashFinding:
		return "crash"
	case Performance:
		return "performance"
	}
	return "unknown"
}

// Finding is one detected JIT-compiler bug manifestation.
type Finding struct {
	Kind    FindingKind
	Profile string
	// Component is the crash component for crashes, the hottest
	// (offending) method for performance findings, and "" for
	// mis-compilations.
	Component string
	Signature string // dedup key
	Detail    string
	SeedID    int64
	MutantID  int
}

var digitRun = regexp.MustCompile(`0x[0-9a-fA-F]+|\d+`)

// signatureOf builds a dedup signature: crashes are keyed by component
// plus a digit-normalized message, like dedup by stack trace;
// mis-compilations and performance bugs are keyed by their coarse
// symptom (the paper likewise cannot attribute unfixed mis-compilations
// to components — Table 2 covers crashes only).
func signatureOf(kind FindingKind, profile, component, detail string) string {
	switch kind {
	case CrashFinding:
		norm := digitRun.ReplaceAllString(detail, "#")
		if strings.Contains(detail, "badbeef") {
			// Heap corruption with the store-barrier marker word is a
			// different root cause than other corrupting writes; keep
			// the two apart like differing crash signatures would.
			norm += "|barrier"
		}
		return fmt.Sprintf("crash|%s|%s|%s", profile, component, norm)
	case Performance:
		// Keyed by the offending method and the slowdown-magnitude
		// bucket so two different performance pathologies in one
		// profile occupy distinct slots instead of deduping together.
		return fmt.Sprintf("perf|%s|%s|%s", profile, component, detail)
	default:
		return fmt.Sprintf("miscompile|%s|%s", profile, detail)
	}
}

// componentOf extracts the JIT component from a crash detail string.
//
// A single detail can carry several markers — a compiler assertion
// whose message mentions the SIGSEGV it averted, a GC corruption
// report quoting the faulting assertion — so classification follows
// an explicit most-specific-first precedence rather than whichever
// substring check happens to run first:
//
//  1. "assertion failure in <component>:" — names the exact component
//     whose invariant fired; always the most precise attribution.
//  2. "GC: heap corruption" — the collector's own integrity check,
//     pinpointing Garbage Collection even if the message embeds other
//     markers.
//  3. "SIGSEGV" / "uncommon trap stub" — a fault while executing
//     generated code, attributable only to Code Execution at large.
//  4. Anything else — "Other JIT Components".
//
// This order is part of the signature contract (signatures embed the
// component), so changing it re-keys every crash corpus: don't,
// without bumping journalVersion.
func componentOf(detail string) string {
	if i := strings.Index(detail, "assertion failure in "); i >= 0 {
		rest := detail[i+len("assertion failure in "):]
		if j := strings.Index(rest, ":"); j >= 0 {
			return rest[:j]
		}
		return rest
	}
	if strings.Contains(detail, "GC: heap corruption") {
		return "Garbage Collection"
	}
	if strings.Contains(detail, "SIGSEGV") || strings.Contains(detail, "uncommon trap stub") {
		return "Code Execution"
	}
	return "Other JIT Components"
}

// Options configures Validate and campaigns.
type Options struct {
	Profile *profiles.Profile
	// MaxIter is the number of mutants per seed (Algorithm 1; the
	// paper uses 8).
	MaxIter int
	// StepLimit is the per-run step budget (the 2-minute analogue).
	StepLimit int64
	// Buggy selects the seeded-defect VM (true for campaigns; false
	// to validate the validator).
	Buggy bool
	// Rand seeds mutation randomness.
	Rand *rand.Rand
	// Mutators / DisableSkeletons forward to jonm for ablation
	// studies.
	Mutators         []jonm.MutatorName
	DisableSkeletons bool
	// CollectMetrics enables per-run ExecStats and JIT-trace
	// collection, aggregated into Result.Metrics (and, by campaigns,
	// into CampaignStats.Metrics).
	CollectMetrics bool

	// scratch, when non-nil, is the reusable per-worker VM memory
	// threaded into every run this Options performs. Purely a
	// performance knob: results are byte-identical with or without it.
	// Must not be shared between concurrently executing Validate calls
	// (see vm.Scratch).
	scratch *vm.Scratch
	// stop, when non-nil, is passed to every run as vm.Config.Stop: the
	// per-seed wall-clock budget sets it to cut the seed's chain short.
	stop *atomic.Bool
}

// defaultStepLimit is the per-run step budget when none is set: ~0.5 s
// of interpretation, the stand-in for the paper's 2-minute wall-clock
// cutoff, scaled to simulator speed.
const defaultStepLimit = 120_000_000

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = 8
	}
	if o.StepLimit == 0 {
		o.StepLimit = defaultStepLimit
	}
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(1))
	}
	return o
}

// bugSet is the defect set every run uses: the profile's set when
// Buggy, none otherwise.
func (o Options) bugSet() bugs.Set {
	if o.Buggy {
		return o.Profile.BugSet()
	}
	return nil
}

func (o Options) mutationConfig() *jonm.Config {
	return &jonm.Config{
		Min:              o.Profile.SynMin,
		Max:              o.Profile.SynMax,
		StepMax:          o.Profile.SynStepMax,
		Rand:             o.Rand,
		Mutators:         o.Mutators,
		DisableSkeletons: o.DisableSkeletons,
	}
}

// runConfig applies o's per-run settings to cfg: the step budget, the
// worker's scratch memory, the seed's stop flag and, for metered runs,
// stats and trace collection.
func (o Options) runConfig(cfg vm.Config, metered bool) vm.Config {
	cfg.StepLimit = o.StepLimit
	cfg.Scratch = o.scratch
	cfg.Stop = o.stop
	if metered && o.CollectMetrics {
		cfg.CollectStats = true
		cfg.RecordTrace = true
	}
	return cfg
}

// runProgram executes bp on the profile VM with the given bug set.
func runProgram(o Options, set bugs.Set, bp *bytecode.Program) *vm.Result {
	return vm.Run(o.runConfig(o.Profile.VMConfigWithBugs(set), true), bp)
}

// Result is one seed's validation outcome.
type Result struct {
	SeedDiscarded bool // seed timed out; nothing comparable
	Findings      []Finding
	Runs          int // VM invocations performed
	Mutants       int // mutants generated
	// MutantSources pairs 1:1 with Findings: MutantSources[i] is the
	// source of the mutant that triggered Findings[i], or "" when the
	// finding has no mutant (the seed's own default run crashed).
	MutantSources []string
	// Metrics aggregates execution metrics and exploration coverage
	// over this seed's runs; nil unless Options.CollectMetrics.
	Metrics *SeedMetrics

	// seedBP is the seed's compiled program, kept so downstream stages
	// (the comparative baseline in runSeed) reuse it instead of
	// compiling the seed a second time. Nil when Validate bailed before
	// compiling (worker panic).
	seedBP *bytecode.Program
}

// Validate implements Algorithm 1 for one seed program: run the seed
// with its default JIT-trace, then MAX_ITER JoNM mutants with theirs,
// and report every output discrepancy as a JIT-compiler bug.
func Validate(seedProg *ast.Program, seedID int64, o Options) *Result {
	o = o.withDefaults()
	set := o.bugSet()
	res := &Result{}
	var meter *seedMeter
	if o.CollectMetrics {
		meter = newSeedMeter()
		defer func() { res.Metrics = meter.finish() }()
	}
	record := func(r *vm.Result) *vm.Result {
		if meter != nil {
			meter.record(r)
		}
		res.Runs++
		return r
	}

	// The seed is analyzed and compiled exactly once; every mutant
	// below reuses this work (AnalyzeDelta re-checks only mutated
	// methods, CompileDelta re-emits only mutated bytecode).
	seedInfo := sem.MustAnalyze(seedProg)
	seedBP := bytecode.MustCompile(seedInfo)
	res.seedBP = seedBP
	ref := record(runProgram(o, set, seedBP)).Output
	if !ref.Conclusive() {
		res.SeedDiscarded = true
		return res
	}
	// A seed whose *default* run already crashes the VM is a finding
	// on its own (it exercised the JIT by itself).
	if ref.Term == vm.TermCrash {
		res.Findings = append(res.Findings, newFinding(o, seedID, -1, ref, ref))
		res.MutantSources = append(res.MutantSources, "") // no mutant: the seed itself crashed
		return res
	}

	mcfg := o.mutationConfig()
	mcfg.SeedInfo = seedInfo
	for i := 0; i < o.MaxIter; i++ {
		mutant, rep, err := jonm.Mutate(seedProg, mcfg)
		if err != nil {
			// Mutator defect; surface loudly in tests, skip in runs.
			panic(err)
		}
		res.Mutants++
		mbp := bytecode.MustCompileDelta(rep.Info, seedBP, rep.Mutated)
		outRes := record(runProgram(o, set, mbp))
		out := outRes.Output
		if out.Term == vm.TermTimeout {
			// Distinguish "mutant is just hot" from a JIT-induced
			// performance collapse: rerun without JIT.
			intOut := record(vm.Run(o.runConfig(o.Profile.InterpreterConfig(), true), mbp)).Output
			if intOut.Conclusive() {
				f := perfFinding(o, set, mbp, seedID, i, out, intOut, outRes.Trace, res)
				res.Findings = append(res.Findings, f)
				res.MutantSources = append(res.MutantSources, ast.Print(mutant))
			}
			continue
		}
		if out.Term == vm.TermStopped || out.Equivalent(ref) {
			continue
		}
		f := newFinding(o, seedID, i, ref, out)
		res.Findings = append(res.Findings, f)
		res.MutantSources = append(res.MutantSources, ast.Print(mutant))
	}
	return res
}

// perfFinding builds a Performance finding for a mutant whose compiled
// run exceeded the step budget while its interpreted run finished. The
// dedup signature carries the offending (hottest) method and the
// slowdown-magnitude bucket, so two distinct performance bugs — say an
// OSR recompile storm in one method and a code-motion pessimization in
// another — no longer collapse into a single per-profile slot.
func perfFinding(o Options, set bugs.Set, mbp *bytecode.Program, seedID int64, mutantID int, out, intOut *vm.Output, trace *vm.JITTrace, res *Result) Finding {
	if trace == nil {
		// Metrics were off, so the compiled run kept no trace; rerun
		// once with tracing to attribute the slowdown.
		cfg := o.runConfig(o.Profile.VMConfigWithBugs(set), false)
		cfg.RecordTrace = true
		trace = vm.Run(cfg, mbp).Trace
		res.Runs++
	}
	hot := "unknown"
	if trace != nil && trace.HottestMethod() != "" {
		hot = trace.HottestMethod()
	}
	bucket := stepRatioBucket(out.Steps, intOut.Steps)
	return Finding{
		Kind:      Performance,
		Profile:   o.Profile.Name,
		Component: hot,
		Detail: fmt.Sprintf("compiled run exceeds step budget; interpreted run finishes (hot method %s, slowdown >= 2^%d)",
			hot, bucket),
		SeedID:    seedID,
		MutantID:  mutantID,
		Signature: signatureOf(Performance, o.Profile.Name, hot, fmt.Sprintf("ratio2^%d", bucket)),
	}
}

// stepRatioBucket buckets compiled/interp step ratios at powers of two
// so jitter in either step count cannot split one bug across
// signatures.
func stepRatioBucket(compiled, interp int64) int {
	if interp <= 0 {
		interp = 1
	}
	r := compiled / interp
	if r < 1 {
		return 0
	}
	return bits.Len64(uint64(r)) - 1
}

// newFinding classifies the discrepancy between the reference output
// ref and out, and computes its dedup signature.
func newFinding(o Options, seedID int64, mutantID int, ref, out *vm.Output) Finding {
	f := Finding{
		Profile:  o.Profile.Name,
		SeedID:   seedID,
		MutantID: mutantID,
		Detail:   out.Detail,
	}
	if out.Term == vm.TermCrash {
		f.Kind = CrashFinding
		f.Component = componentOf(out.Detail)
	} else {
		f.Kind = Miscompilation
		f.Detail = fmt.Sprintf("%s-vs-%s", ref.Term, out.Term)
	}
	f.Signature = signatureOf(f.Kind, o.Profile.Name, f.Component, f.Detail)
	return f
}

// TraditionalDiscrepancy implements the baseline of Section 4.3: run
// the seed with its default JIT-trace, then again with every method
// force-compiled before its first call (the -Xjit:count=0 analogue),
// and compare. No mutants, no compilation-space exploration.
func TraditionalDiscrepancy(seedBP *bytecode.Program, o Options) (bool, int) {
	o = o.withDefaults()
	set := o.bugSet()
	ref := runProgram(o, set, seedBP).Output
	runs := 1
	if !ref.Conclusive() {
		return false, runs
	}
	cfg := o.runConfig(o.Profile.VMConfigWithBugs(set), false)
	cfg.Policy = &vm.ForcedPolicy{
		Tier:    o.Profile.MaxTier,
		Compile: func(string, int64) bool { return true },
	}
	full := vm.Run(cfg, seedBP).Output
	runs++
	if !full.Conclusive() {
		return false, runs
	}
	return !full.Equivalent(ref), runs
}
