// Campaign-side fault localization. When a campaign runs with Blame
// enabled, every first-seen crash or mis-compilation finding is handed
// to internal/blame right after corpus recording: whether the
// reproducer re-triggers the finding on its own, the guilty-pass
// bisection, the minimal compilation-space point and the seeded defect
// whose removal fixes it are computed on the reducer goroutine
// (deterministic discovery order), attached to the finding's
// CampaignStats entry — Table 1's confirmed and fixed rows read them —
// and persisted as blame.json next to the corpus entry. Blame results
// are never journaled: they are a pure function of (reproducer,
// signature, config), so resumed campaigns recompute them identically.

package harness

import (
	"fmt"

	"artemis/internal/blame"
	"artemis/internal/fuzz"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
	"artemis/internal/vm"
)

// reproducer parses src, the best reproducer the campaign kept for f
// (reduced > mutant), and regenerates f's seed when src is "" (the
// seed's own default run crashed) or does not parse.
func reproducer(f Finding, src string) *ast.Program {
	if src != "" {
		if p, err := parser.Parse(src); err == nil {
			return p
		}
	}
	return fuzz.Generate(fuzz.Options{Seed: f.SeedID})
}

// Blame fault-localizes prog, a program the -mode predicate
// (TestForMode) keeps, with the campaign's symptom pinned to prog's
// own signature: a probe still triggers the finding only if it
// crashes, or diverges from interpretation, exactly as prog does.
func (kc KeepConfig) Blame(prog *ast.Program, mode string) (*blame.Result, error) {
	kind, err := kindForMode(mode)
	if err != nil {
		return nil, err
	}
	sig := kc.signature(kind, prog, nil)
	if sig == "" {
		return nil, fmt.Errorf("program triggers no %s finding", mode)
	}
	return kc.localize(kind, sig, prog, 0), nil
}

// localize is the one entry into blame, for campaigns and Blame alike:
// it localizes the finding of kind with signature sig in prog under the
// predicates' VM (the same profile, defect set and step budget), with
// at most budget probe runs (0 = blame.DefaultBudget). Nil for finding
// kinds with no cheap symptom predicate (performance findings need
// timeout-priced probes) and for a mis-compilation whose interpreted
// reference is inconclusive.
func (kc KeepConfig) localize(kind FindingKind, sig string, prog *ast.Program, budget int) *blame.Result {
	symptom := kc.symptom(kind, sig, prog)
	if symptom == nil {
		return nil
	}
	return blame.Localize(prog, symptom, blame.Config{Profile: kc.Profile, Bugs: kc.Bugs, StepLimit: kc.limit(), Budget: budget})
}

// symptom is "a probe still triggers the finding of kind with
// signature sig", built from the same signature checks as the keep
// predicates. Mis-compilation probes are compared with prog's
// interpreted reference; nil when that reference is inconclusive or
// the kind has no cheap predicate.
func (kc KeepConfig) symptom(kind FindingKind, sig string, prog *ast.Program) blame.Symptom {
	name := kc.Profile.Name
	switch kind {
	case CrashFinding:
		return func(out *vm.Output) bool { return crashSignature(name, out) == sig }
	case Miscompilation:
		ref := kc.run(kc.Profile.InterpreterConfig(), Compile(prog), nil)
		if !ref.Conclusive() {
			return nil // no usable reference
		}
		return func(out *vm.Output) bool { return divergenceSignature(name, ref, out) == sig }
	default:
		return nil
	}
}
