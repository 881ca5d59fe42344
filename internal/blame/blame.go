// Package blame automates the paper's manual triage step (§4.2): given
// a reproducer program and a symptom predicate, it localizes a finding
// to (a) the minimal set of optimizing-tier passes whose disabling
// makes the symptom disappear, (b) a minimal compilation-space point —
// the smallest forced-compilation method set that still triggers the
// divergence (delta debugging over vm.ForcedPolicy.Methods), and (c)
// the seeded defect whose removal alone makes the symptom disappear
// (the analogue of the developers' fix landing, Table 1's "fixed"
// row). An extra probe runs the compiler with SSA invariant validation
// on, so a "pass mis-compiled" report can be told apart from "pass
// broke the IR and a later stage mis-lowered it".
//
// Everything here is a pure function of (program, symptom, config):
// probes run fresh single-use VMs, consume a deterministic run budget,
// and visit candidates in canonical order, so blame results are
// byte-identical across campaign worker counts and across resumes.
package blame

import (
	"sort"
	"strings"

	"artemis/internal/bugs"
	"artemis/internal/bytecode"
	"artemis/internal/jit"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/sem"
	"artemis/internal/profiles"
	"artemis/internal/vm"
)

// DefaultBudget caps probe VM runs per localization when
// Config.Budget is 0. The default-policy probe and pass bisection need
// at most 3+len(jit.PassNames) runs, the space shrink 1+len(methods)
// and defect isolation len(Config.Bugs); the cap exists so a
// pathological reproducer (many methods, slow runs) cannot stall a
// campaign's reducer goroutine indefinitely.
const DefaultBudget = 96

// Config parameterizes one localization.
type Config struct {
	// Profile supplies the VM configuration the finding manifested
	// under.
	Profile *profiles.Profile
	// Bugs is the seeded-defect set active when the finding was made.
	Bugs bugs.Set
	// StepLimit bounds each probe run (0 = the VM default).
	StepLimit int64
	// Budget caps total probe VM runs (0 = DefaultBudget).
	Budget int
}

// Symptom decides whether one probe run still exhibits the finding
// being localized. The harness builds it from the finding's dedup
// signature (crashes) or from an interpreted reference (miscompiles).
type Symptom func(out *vm.Output) bool

// Pass-localization verdicts.
const (
	// VerdictLocalized: GuiltyPasses is a 1-minimal set whose
	// disabling makes the symptom disappear.
	VerdictLocalized = "localized"
	// VerdictOutsidePipeline: the symptom survives with every
	// optimizing pass disabled — the defect lives in SSA construction,
	// lowering/codegen, the runtime, or a non-pass compiler stage.
	VerdictOutsidePipeline = "outside-pass-pipeline"
	// VerdictNotReproduced: the reproducer no longer triggers the
	// symptom under the default policy (nothing to bisect).
	VerdictNotReproduced = "not-reproduced"
	// VerdictBudget: the probe budget ran out mid-bisection.
	VerdictBudget = "budget-exhausted"
	// VerdictNoOptTier: the profile has no optimizing tier, so there
	// is no pass pipeline to bisect (e.g. artlike, MaxTier 1).
	VerdictNoOptTier = "no-optimizing-tier"
)

// Space-localization verdicts.
const (
	// VerdictMinimal: MinimalMethods is a 1-minimal forced-compilation
	// set still triggering the symptom.
	VerdictMinimal = "minimal"
	// VerdictNotInForcedSpace: force-compiling every method does not
	// trigger the symptom — it needs counters, OSR, or deoptimization
	// behaviour the forced point does not produce.
	VerdictNotInForcedSpace = "not-in-forced-space"
)

// Defect-isolation verdicts: VerdictLocalized (FixedBy names the
// defect), VerdictNotReproduced, VerdictBudget, and:
const (
	// VerdictNoSingleDefect: the symptom survives the removal of each
	// seeded defect on its own — it needs two defects at once, or none
	// of them causes it.
	VerdictNoSingleDefect = "no-single-defect"
)

// Result is one finding's localization, serialized as blame.json in
// corpus entries.
type Result struct {
	// GuiltyPasses is the minimal pass set (canonical pipeline order)
	// whose disabling makes the symptom disappear; nil unless
	// PassVerdict is VerdictLocalized.
	GuiltyPasses []string `json:"guilty_passes,omitempty"`
	PassVerdict  string   `json:"pass_verdict"`

	// MinimalMethods is the minimal forced-compilation method set that
	// still triggers the symptom; nil unless SpaceVerdict is
	// VerdictMinimal.
	MinimalMethods []string `json:"minimal_methods,omitempty"`
	SpaceVerdict   string   `json:"space_verdict"`

	// IRInvariant holds the SSA-validator crash detail when compiling
	// the reproducer with invariant checks breaks — i.e. some pass
	// corrupts the IR itself rather than emitting wrong-but-valid code.
	IRInvariant string `json:"ir_invariant,omitempty"`

	// FixedBy is the first seeded defect, in sorted ID order, whose
	// removal alone from Config.Bugs makes the symptom disappear; ""
	// unless DefectVerdict is VerdictLocalized.
	FixedBy       string `json:"fixed_by,omitempty"`
	DefectVerdict string `json:"defect_verdict"`

	// Runs is the number of probe VM runs spent.
	Runs int `json:"runs"`
}

// PassLabel renders the guilty set for tables: "gcm", "gvn+licm", or
// a parenthesized verdict when no pass was localized.
func (r *Result) PassLabel() string {
	if r == nil {
		return "(not localized)"
	}
	if r.PassVerdict == VerdictLocalized && len(r.GuiltyPasses) > 0 {
		return strings.Join(r.GuiltyPasses, "+")
	}
	return "(" + r.PassVerdict + ")"
}

// Reproduced reports whether the base probe — the reproducer on its
// own, default policy, every configured defect on — triggered the
// symptom. The base probe always fits the budget, so every defect
// verdict but not-reproduced implies that it did.
func (r *Result) Reproduced() bool {
	return r != nil && r.DefectVerdict != "" && r.DefectVerdict != VerdictNotReproduced
}

// engine carries one localization's shared state.
type engine struct {
	cfg     Config
	bp      *bytecode.Program
	symptom Symptom
	budget  int
	runs    int
}

// Localize bisects prog's finding, spending at most cfg.Budget probe
// runs. The default-policy probe runs first; pass bisection, the space
// shrink and defect isolation follow, in that order. It never mutates
// shared state and is safe to call from any single goroutine (probes
// build fresh VMs).
func Localize(prog *ast.Program, symptom Symptom, cfg Config) *Result {
	budget := cfg.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	e := &engine{
		cfg:     cfg,
		bp:      bytecode.MustCompile(sem.MustAnalyze(prog)),
		symptom: symptom,
		budget:  budget,
	}
	res := &Result{}
	// The budget is at least 1, so the base probe always runs.
	base := e.run(cfg.Bugs, nil, nil, false)
	e.bisectPasses(res, base)
	e.shrinkSpace(res)
	e.isolateDefect(res, base)
	res.Runs = e.runs
	return res
}

// run executes one probe: the profile VM with the given defect set,
// optionally with passes disabled, IR validation, or a policy
// override. Every probe gets its own compiler, so the pass switches
// of concurrent localizations never meet. Returns nil once the budget
// is exhausted.
func (e *engine) run(set bugs.Set, disable []string, policy vm.Policy, validateIR bool) *vm.Output {
	if e.runs >= e.budget {
		return nil
	}
	e.runs++
	cfg := e.cfg.Profile.VMConfigWithBugs(set)
	cfg.StepLimit = e.cfg.StepLimit
	cfg.JIT = jit.New(jit.Options{MaxTier: e.cfg.Profile.MaxTier, Bugs: set, DisablePasses: disable, ValidateIR: validateIR})
	if policy != nil {
		cfg.Policy = policy
	}
	return vm.Run(cfg, e.bp).Output
}

// bisectPasses finds the minimal guilty pass set: given that the base
// probe reproduces the symptom, check it disappears with the whole
// pipeline off, then greedily re-enable passes one at a time (canonical
// order), keeping a pass out of the guilty set whenever re-enabling it
// leaves the symptom gone. The result is 1-minimal: removing any single
// guilty pass from the disable set brings the symptom back.
func (e *engine) bisectPasses(res *Result, base *vm.Output) {
	if e.cfg.Profile.MaxTier < 2 {
		res.PassVerdict = VerdictNoOptTier
		return
	}
	if !e.symptom(base) {
		res.PassVerdict = VerdictNotReproduced
		return
	}

	// One probe with SSA invariant validation: does some pass break
	// the IR itself on this reproducer?
	if v := e.run(e.cfg.Bugs, nil, nil, true); v != nil && v.Term == vm.TermCrash &&
		strings.Contains(v.Detail, "assertion failure in IR Validator") {
		res.IRInvariant = v.Detail
	}

	allOff := e.run(e.cfg.Bugs, jit.PassNames, nil, false)
	if allOff == nil {
		res.PassVerdict = VerdictBudget
		return
	}
	if e.symptom(allOff) {
		res.PassVerdict = VerdictOutsidePipeline
		return
	}

	guilty := append([]string(nil), jit.PassNames...)
	for _, p := range jit.PassNames {
		trial := without(guilty, p)
		if len(trial) == len(guilty) {
			continue // already dropped
		}
		out := e.run(e.cfg.Bugs, trial, nil, false)
		if out == nil {
			res.PassVerdict = VerdictBudget
			return
		}
		if !e.symptom(out) {
			guilty = trial // p is innocent: symptom stays gone without it
		}
	}
	res.GuiltyPasses = guilty
	res.PassVerdict = VerdictLocalized
}

// shrinkSpace delta-debugs the forced-compilation method set: start
// from the "compile everything" point of the compilation space; if it
// triggers the symptom, greedily flip methods back to interpretation,
// keeping each flip that preserves the symptom. The surviving set is a
// 1-minimal compilation-space point for the finding.
func (e *engine) shrinkSpace(res *Result) {
	methods := make([]string, 0, len(e.bp.Methods))
	for i, m := range e.bp.Methods {
		if i == e.bp.ClinitIndex {
			continue // <clinit> runs outside policy dispatch
		}
		methods = append(methods, m.Name)
	}
	sort.Strings(methods)

	// One policy serves every probe: its predicate reads the live
	// compiled set, which probes (run one at a time) see as it shrinks.
	compiled := make(map[string]bool, len(methods))
	for _, m := range methods {
		compiled[m] = true
	}
	forced := &vm.ForcedPolicy{Tier: e.cfg.Profile.MaxTier, Compile: func(m string, _ int64) bool { return compiled[m] }}
	out := e.run(e.cfg.Bugs, nil, forced, false)
	if out == nil {
		res.SpaceVerdict = VerdictBudget
		return
	}
	if !e.symptom(out) {
		res.SpaceVerdict = VerdictNotInForcedSpace
		return
	}
	for _, m := range methods {
		compiled[m] = false
		out := e.run(e.cfg.Bugs, nil, forced, false)
		if out == nil {
			res.SpaceVerdict = VerdictBudget
			return
		}
		if !e.symptom(out) {
			compiled[m] = true // needed: flipping it loses the symptom
		}
	}
	for _, m := range methods {
		if compiled[m] {
			res.MinimalMethods = append(res.MinimalMethods, m)
		}
	}
	res.SpaceVerdict = VerdictMinimal
}

// isolateDefect names the seeded defect behind the finding: given that
// the base probe reproduces the symptom, remove one defect at a time
// from Config.Bugs, in sorted ID order, and report the first whose
// removal alone makes the symptom disappear. Single removal rather than
// a greedy 1-minimal set: the greedy set's probes run with most
// defects off, and those tend to run to the step limit. A symptom that
// needs two defects at once is reported as VerdictNoSingleDefect.
func (e *engine) isolateDefect(res *Result, base *vm.Output) {
	if !e.symptom(base) {
		res.DefectVerdict = VerdictNotReproduced
		return
	}
	ids := make([]string, 0, len(e.cfg.Bugs))
	for id, on := range e.cfg.Bugs {
		if on {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		out := e.run(bugs.NewSet(without(ids, id)...), nil, nil, false)
		if out == nil {
			res.DefectVerdict = VerdictBudget
			return
		}
		if !e.symptom(out) {
			res.FixedBy = id
			res.DefectVerdict = VerdictLocalized
			return
		}
	}
	res.DefectVerdict = VerdictNoSingleDefect
}

// without returns s minus one occurrence of x (s unchanged when x is
// absent).
func without(s []string, x string) []string {
	out := make([]string, 0, len(s))
	for _, v := range s {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}
