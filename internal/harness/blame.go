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

// blamer adapts campaign findings to internal/blame: it picks the best
// available reproducer source and pins each probe to the finding's
// dedup signature.
type blamer struct {
	kc     KeepConfig
	budget int
}

func newBlamer(opts CampaignOptions) *blamer {
	return &blamer{kc: opts.Options.keepConfig(), budget: opts.BlameBudget}
}

// localize runs fault localization for one first-seen finding. src is
// the best reproducer available (reduced > mutant; "" when the seed's
// own default run crashed, in which case the seed is regenerated).
// Returns nil for finding kinds with no cheap symptom predicate
// (performance findings need timeout-priced probes).
func (bl *blamer) localize(f Finding, src string) *blame.Result {
	var prog *ast.Program
	if src != "" {
		if p, err := parser.Parse(src); err == nil {
			prog = p
		}
	}
	if prog == nil {
		prog = fuzz.Generate(fuzz.Options{Seed: f.SeedID})
	}
	symptom := bl.kc.symptom(f.Kind, f.Signature, prog)
	if symptom == nil {
		return nil
	}
	return blame.Localize(prog, symptom, bl.kc.blameConfig(bl.budget))
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
	return blame.Localize(prog, kc.symptom(kind, sig, prog), kc.blameConfig(0)), nil
}

// blameConfig localizes under the predicates' VM: the same profile,
// defect set and step budget.
func (kc KeepConfig) blameConfig(budget int) blame.Config {
	return blame.Config{Profile: kc.Profile, Bugs: kc.Bugs, StepLimit: kc.limit(), Budget: budget}
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
