package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"regexp"
	"strings"

	"artemis/internal/blame"
	"artemis/internal/bugs"
	"artemis/internal/bytecode"
	"artemis/internal/fuzz"
	"artemis/internal/harness"
	"artemis/internal/jonm"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
	"artemis/internal/lang/sem"
	"artemis/internal/profiles"
	"artemis/internal/reduce"
	"artemis/internal/vm"
)

// The traced replica re-runs one round's campaign serially through the
// public entry points of each layer, in Algorithm 1 order, so the
// tracer can time every call from outside the program. It must
// reproduce the campaign's results exactly; the parent compares the
// two and fails the run on any difference. It stands in for tracing
// inside the program until that exists.

// finding is one distinct finding of a round, as the campaign reports
// it and as the replica rebuilds it.
type finding struct {
	Kind      string `json:"kind"`
	Component string `json:"component,omitempty"`
	Signature string `json:"signature"`
	Detail    string `json:"detail"`
	SeedID    int64  `json:"seed_id"`
	MutantID  int    `json:"mutant_id"`
	Count     int    `json:"count"`
}

// corpusEntry is what triage left for one distinct finding.
type corpusEntry struct {
	Signature   string `json:"signature"`
	Reduced     bool   `json:"reduced"`
	ReduceNote  string `json:"reduce_note,omitempty"`
	Size        int    `json:"size_statements,omitempty"`
	ReducedSize int    `json:"reduced_size_statements,omitempty"`
	// Blame is the blame.json document, "" when the kind has none.
	Blame string `json:"blame,omitempty"`
}

// outcome is the part of a round's result the replica must reproduce.
type outcome struct {
	Seeds      int           `json:"seeds"`
	Mutants    int           `json:"mutants"`
	Runs       int           `json:"runs"`
	Discarded  int           `json:"discarded"`
	Duplicates int           `json:"duplicates"`
	Distinct   []finding     `json:"distinct"`
	Corpus     []corpusEntry `json:"corpus,omitempty"`
}

// layerTotals are the per-layer counts and times of one traced round.
type layerTotals struct {
	SelfNs map[string]int64 `json:"self_ns"`

	RunCalls      int64 `json:"run_calls"`
	RunNs         int64 `json:"run_ns"`
	StepsInterp   int64 `json:"steps_interp"`
	StepsCompiled int64 `json:"steps_compiled"`
	GCCycles      int64 `json:"gc_cycles"`
	Deopts        int64 `json:"deopts"`
	PerfRerunNs   int64 `json:"perf_rerun_ns"`
	TimeoutRuns   int64 `json:"timeout_runs"`
	TimeoutNs     int64 `json:"timeout_ns"`

	ExecCalls      int64 `json:"exec_calls"`
	EnvCalls       int64 `json:"env_calls"`
	CompileCalls   int64 `json:"compile_calls"`
	CompileFailed  int64 `json:"compile_failed"`
	CompileTier2Ns int64 `json:"compile_tier2_ns"`
	CodeInstrs     int64 `json:"code_instrs"`

	MethodsMutated int64 `json:"methods_mutated"`
	MethodsReused  int64 `json:"methods_reused"`
	MutantMethods  int64 `json:"mutant_methods"`

	ReduceNs       int64 `json:"reduce_ns"`
	KeepEvals      int64 `json:"keep_evals"`
	KeepAccepts    int64 `json:"keep_accepts"`
	SizeBefore     int64 `json:"size_before"`
	SizeAfter      int64 `json:"size_after"`
	BlameNs        int64 `json:"blame_ns"`
	BlameRuns      int64 `json:"blame_runs"`
	Blamed         int64 `json:"blamed"`
	BlameLocalized int64 `json:"blame_localized"`

	SeedNs []int64 `json:"seed_ns"`
}

type replica struct {
	w       workload
	prof    *profiles.Profile
	set     bugs.Set
	scratch *vm.Scratch
	t       *tracer
	tot     layerTotals
}

func newReplica(w workload, t *tracer) (*replica, error) {
	prof, set, err := w.profile()
	if err != nil {
		return nil, err
	}
	return &replica{w: w, prof: prof, set: set, scratch: &vm.Scratch{}, t: t}, nil
}

// round replays a campaign over seeds fuzzer seeds from seedBase and
// merges the outcomes in seed order, like the campaign's reducer.
func (r *replica) round(seedBase int64, seeds int) outcome {
	out := outcome{Seeds: seeds}
	seen := map[string]int{}
	r.t.push(layerHarness)
	defer r.t.pop()
	for i := 0; i < seeds; i++ {
		seedID := seedBase + int64(i)
		r.t.seedID = seedID
		sp := r.t.begin("seed")
		res := r.seed(seedID)
		r.tot.SeedNs = append(r.tot.SeedNs, r.t.end(sp).Dur)
		out.Runs += res.runs
		out.Mutants += res.mutants
		if res.discarded {
			out.Discarded++
			continue
		}
		for fi, f := range res.findings {
			if idx, dup := seen[f.Signature]; dup {
				out.Duplicates++
				out.Distinct[idx].Count++
				continue
			}
			seen[f.Signature] = len(out.Distinct)
			f.Count = 1
			out.Distinct = append(out.Distinct, f)
			if r.w.Triage {
				out.Corpus = append(out.Corpus, r.triage(f, res.sources[fi]))
			}
		}
	}
	return out
}

type seedResult struct {
	discarded     bool
	runs, mutants int
	findings      []finding
	sources       []string // mutant source per finding, "" for the seed itself
}

// seed is Algorithm 1 for one seed: the seed's default run, then
// MAX_ITER JoNM mutants compiled incrementally against it.
func (r *replica) seed(seedID int64) (res seedResult) {
	t := r.t
	prog := timed(t, layerGenerate, func() *ast.Program { return fuzz.Generate(fuzz.Options{Seed: seedID}) })
	info := timed(t, layerAnalyze, func() *sem.Info { return sem.MustAnalyze(prog) })
	seedBP := timed(t, layerCompile, func() *bytecode.Program { return bytecode.MustCompile(info) })

	ref := r.run("seed", r.prof.VMConfigWithBugs(r.set), seedBP).Output
	res.runs++
	if ref.Term == vm.TermTimeout {
		res.discarded = true
		return res
	}
	if ref.Term == vm.TermCrash {
		res.findings = append(res.findings, r.discrepancy(seedID, -1, ref, ref))
		res.sources = append(res.sources, "")
		return res
	}

	mcfg := &jonm.Config{
		Min: r.prof.SynMin, Max: r.prof.SynMax, StepMax: r.prof.SynStepMax,
		Rand:     rand.New(rand.NewSource(seedID * 7919)),
		SeedInfo: info,
	}
	for i := 0; i < maxIter; i++ {
		t.push(layerMutate)
		mutant, rep, err := jonm.Mutate(prog, mcfg)
		t.pop()
		if err != nil {
			panic(err) // the campaign reports this as a Harness Internal Error
		}
		res.mutants++
		mbp := timed(t, layerCompileDelta, func() *bytecode.Program {
			return bytecode.MustCompileDelta(rep.Info, seedBP, rep.Mutated)
		})
		r.tot.MethodsMutated += int64(len(rep.Mutated))
		r.tot.MutantMethods += int64(len(mbp.Methods))
		for mi, m := range mbp.Methods {
			if mi < len(seedBP.Methods) && m == seedBP.Methods[mi] {
				r.tot.MethodsReused++
			}
		}

		out := r.run("mutant", r.prof.VMConfigWithBugs(r.set), mbp).Output
		res.runs++
		if out.Term == vm.TermTimeout {
			// A hot mutant or a JIT-induced slowdown: the interpreter decides.
			intOut := r.run("perf-rerun", r.prof.InterpreterConfig(), mbp).Output
			res.runs++
			if intOut.Term != vm.TermTimeout {
				traceCfg := r.prof.VMConfigWithBugs(r.set)
				traceCfg.RecordTrace = true
				trace := r.run("perf-trace", traceCfg, mbp).Trace
				res.runs++
				res.findings = append(res.findings, perfFinding(r.prof.Name, seedID, i, out, intOut, trace))
				res.sources = append(res.sources, ast.Print(mutant))
			}
			continue
		}
		if out.Equivalent(ref) {
			continue
		}
		res.findings = append(res.findings, r.discrepancy(seedID, i, ref, out))
		res.sources = append(res.sources, ast.Print(mutant))
	}
	return res
}

// run executes one program on a VM whose JIT is wrapped in timing
// code, and accounts the run.
func (r *replica) run(role string, cfg vm.Config, bp *bytecode.Program) *vm.Result {
	t := r.t
	cfg.StepLimit = r.w.StepLimit
	cfg.Scratch = r.scratch
	cfg.CollectStats = true
	if cfg.JIT != nil {
		cfg.JIT = &timedJIT{inner: cfg.JIT, t: t}
	}
	t.run = runCounters{}
	sp := t.begin("vm.run")
	t.push(layerVM)
	res := vm.Run(cfg, bp)
	dur, _ := t.pop()
	s := t.end(sp)
	c := t.run
	s.Role, s.Term, s.Steps = role, res.Output.Term.String(), res.Steps
	s.ExecSelf, s.ExecCalls, s.CompileNs = c.execSelf, c.execCalls, c.compileNs

	tot := &r.tot
	tot.RunCalls++
	tot.RunNs += dur
	tot.StepsInterp += res.Stats.InterpSteps
	tot.StepsCompiled += res.Stats.CompiledSteps
	tot.GCCycles += res.GCRuns
	tot.Deopts += res.Deopts
	tot.ExecCalls += c.execCalls
	tot.EnvCalls += c.envCalls
	tot.CompileCalls += c.compileCalls
	tot.CompileFailed += c.compileFailed
	tot.CompileTier2Ns += c.compileTier2Ns
	tot.CodeInstrs += c.codeInstrs
	if res.Output.Term == vm.TermTimeout {
		tot.TimeoutRuns++
		tot.TimeoutNs += dur
	}
	if role == "perf-rerun" {
		tot.PerfRerunNs += dur
	}
	return res
}

// discrepancy classifies a crash or an output difference the way the
// harness does.
func (r *replica) discrepancy(seedID int64, mutantID int, ref, out *vm.Output) finding {
	f := finding{SeedID: seedID, MutantID: mutantID, Detail: out.Detail}
	kind := harness.Miscompilation
	if out.Term == vm.TermCrash {
		kind = harness.CrashFinding
		f.Component = componentOf(out.Detail)
	} else {
		f.Detail = fmt.Sprintf("%s-vs-%s", ref.Term, out.Term)
	}
	f.Kind = kind.String()
	f.Signature = signatureOf(kind, r.prof.Name, f.Component, f.Detail)
	return f
}

func perfFinding(profile string, seedID int64, mutantID int, out, intOut *vm.Output, trace *vm.JITTrace) finding {
	hot := "unknown"
	if trace != nil && trace.HottestMethod() != "" {
		hot = trace.HottestMethod()
	}
	bucket := stepRatioBucket(out.Steps, intOut.Steps)
	return finding{
		Kind:      harness.Performance.String(),
		Component: hot,
		Detail: fmt.Sprintf("compiled run exceeds step budget; interpreted run finishes (hot method %s, slowdown >= 2^%d)",
			hot, bucket),
		SeedID:    seedID,
		MutantID:  mutantID,
		Signature: signatureOf(harness.Performance, profile, hot, fmt.Sprintf("ratio2^%d", bucket)),
	}
}

// triage reduces a first-seen finding under the harness's signature
// predicates with the default evaluation budget, then localizes the
// best reproducer, as the campaign's corpus writer and blamer do.
func (r *replica) triage(f finding, mutantSrc string) corpusEntry {
	t := r.t
	entry := corpusEntry{Signature: f.Signature}
	// The corpus stores the seed's source beside every finding.
	repro := ast.Print(timed(t, layerGenerate, func() *ast.Program { return fuzz.Generate(fuzz.Options{Seed: f.SeedID}) }))
	if mutantSrc != "" {
		repro = mutantSrc
	}
	kc := harness.KeepConfig{Profile: r.prof, Bugs: r.set, StepLimit: r.w.StepLimit}
	var keep reduce.Predicate
	switch f.Kind {
	case harness.CrashFinding.String():
		keep = kc.CrashSignature(f.Signature)
	case harness.Miscompilation.String():
		keep = kc.MiscompileSignature(f.Signature)
	}
	if keep == nil {
		entry.ReduceNote = fmt.Sprintf("no in-campaign predicate for %s findings", f.Kind)
	} else {
		prog := mustParse(repro)
		if reduced, ok := r.reduce(prog, keep); ok {
			entry.Reduced = true
			entry.Size = ast.ProgramSize(prog)
			entry.ReducedSize = ast.ProgramSize(reduced)
			r.tot.SizeBefore += int64(entry.Size)
			r.tot.SizeAfter += int64(entry.ReducedSize)
			repro = ast.Print(reduced)
		} else {
			entry.ReduceNote = "reproducer does not re-trigger the signature standalone; stored unreduced"
		}
	}
	if res := r.blame(f, mustParse(repro)); res != nil {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			panic(err)
		}
		entry.Blame = string(data) + "\n"
	}
	return entry
}

func (r *replica) reduce(prog *ast.Program, keep reduce.Predicate) (*ast.Program, bool) {
	t := r.t
	sp := t.begin("reduce")
	t.push(layerReduce)
	remaining := harness.DefaultReduceBudget
	counted := func(p *ast.Program) bool {
		if remaining <= 0 {
			return false
		}
		remaining--
		ks := t.begin("keep")
		t.push(layerKeep)
		kept := keep(p)
		t.pop()
		t.end(ks).Kept = kept
		r.tot.KeepEvals++
		if kept {
			r.tot.KeepAccepts++
		}
		return kept
	}
	reduced, ok := reduce.ReduceChecked(prog, counted, reduce.Options{})
	dur, _ := t.pop()
	t.end(sp)
	r.tot.ReduceNs += dur
	return reduced, ok
}

// blame rebuilds the finding's symptom from its signature (crashes) or
// from an interpreted reference (mis-compilations) and localizes it.
func (r *replica) blame(f finding, prog *ast.Program) *blame.Result {
	t := r.t
	sp := t.begin("blame")
	t.push(layerBlame)
	var res *blame.Result
	if symptom := r.symptom(f, prog); symptom != nil {
		res = blame.Localize(prog, symptom, blame.Config{Profile: r.prof, Bugs: r.set, StepLimit: r.w.StepLimit})
	}
	dur, _ := t.pop()
	s := t.end(sp)
	r.tot.BlameNs += dur
	if res != nil {
		s.Verdict = res.PassVerdict
		r.tot.Blamed++
		r.tot.BlameRuns += int64(res.Runs)
		if res.PassVerdict == blame.VerdictLocalized {
			r.tot.BlameLocalized++
		}
	}
	return res
}

func (r *replica) symptom(f finding, prog *ast.Program) blame.Symptom {
	name := r.prof.Name
	switch f.Kind {
	case harness.CrashFinding.String():
		return func(out *vm.Output) bool {
			return out.Term == vm.TermCrash &&
				signatureOf(harness.CrashFinding, name, componentOf(out.Detail), out.Detail) == f.Signature
		}
	case harness.Miscompilation.String():
		cfg := r.prof.InterpreterConfig()
		cfg.StepLimit = r.w.StepLimit
		ref := vm.Run(cfg, harness.Compile(prog)).Output
		if ref.Term == vm.TermTimeout {
			return nil
		}
		return func(out *vm.Output) bool {
			if out.Term == vm.TermTimeout || out.Equivalent(ref) {
				return false
			}
			detail := fmt.Sprintf("%s-vs-%s", ref.Term, out.Term)
			return signatureOf(harness.Miscompilation, name, "", detail) == f.Signature
		}
	}
	return nil
}

// mustParse reparses a printed program; printed sources always parse.
func mustParse(src string) *ast.Program {
	p, err := parser.Parse(src)
	if err != nil {
		panic(fmt.Sprintf("printed program does not reparse: %v", err))
	}
	return p
}

// The dedup signature mirrors internal/harness (validate.go), which
// does not export it. If the two drift apart, the traced replica stops
// matching the campaign and the traced run fails.

var digitRun = regexp.MustCompile(`0x[0-9a-fA-F]+|\d+`)

func signatureOf(kind harness.FindingKind, profile, component, detail string) string {
	switch kind {
	case harness.CrashFinding:
		norm := digitRun.ReplaceAllString(detail, "#")
		if strings.Contains(detail, "badbeef") {
			norm += "|barrier"
		}
		return fmt.Sprintf("crash|%s|%s|%s", profile, component, norm)
	case harness.Performance:
		return fmt.Sprintf("perf|%s|%s|%s", profile, component, detail)
	default:
		return fmt.Sprintf("miscompile|%s|%s", profile, detail)
	}
}

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

func stepRatioBucket(compiled, interp int64) int {
	if interp <= 0 {
		interp = 1
	}
	q := compiled / interp
	if q < 1 {
		return 0
	}
	return bits.Len64(uint64(q)) - 1
}
