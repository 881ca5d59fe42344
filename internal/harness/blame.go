// Campaign-side fault localization. When a campaign runs with Blame
// enabled, every first-seen crash or mis-compilation finding is handed
// to internal/blame right after corpus recording: the guilty-pass
// bisection and the minimal compilation-space point are computed on
// the reducer goroutine (deterministic discovery order), attached to
// the finding's CampaignStats entry, and persisted as blame.json next
// to the corpus entry. Blame results are never journaled: they are a
// pure function of (reproducer, signature, config), so resumed
// campaigns recompute them identically.

package harness

import (
	"artemis/internal/blame"
	"artemis/internal/fuzz"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
	"artemis/internal/vm"
)

// blamer adapts campaign findings to internal/blame: it rebuilds each
// finding's symptom predicate from its dedup signature and picks the
// best available reproducer source.
type blamer struct {
	cfg blame.Config
}

func newBlamer(opts CampaignOptions) *blamer {
	return &blamer{cfg: blame.Config{
		Profile:   opts.Options.Profile,
		Bugs:      opts.Options.bugSet(),
		StepLimit: opts.Options.StepLimit,
		Budget:    opts.BlameBudget,
	}}
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
	symptom := bl.symptomFor(f, prog)
	if symptom == nil {
		return nil
	}
	return blame.Localize(prog, symptom, bl.cfg)
}

// symptomFor rebuilds the finding's symptom predicate from the same
// signature checks as the reducer's keep predicates (keep.go), so
// "still triggers" means the same thing to reduction and to
// localization: crashes must reproduce the exact dedup signature;
// mis-compilations must diverge from an interpreted reference with the
// same signature.
func (bl *blamer) symptomFor(f Finding, prog *ast.Program) blame.Symptom {
	name := bl.cfg.Profile.Name
	switch f.Kind {
	case CrashFinding:
		return func(out *vm.Output) bool { return crashSignature(name, out) == f.Signature }
	case Miscompilation:
		intCfg := bl.cfg.Profile.InterpreterConfig()
		intCfg.StepLimit = bl.cfg.StepLimit
		ref := vm.Run(intCfg, Compile(prog)).Output
		if !ref.Conclusive() {
			return nil // no usable reference
		}
		return func(out *vm.Output) bool { return divergenceSignature(name, ref, out) == f.Signature }
	default:
		return nil
	}
}
