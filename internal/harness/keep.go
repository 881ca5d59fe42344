// Reduction predicates. Reducing a bug-triggering program only makes
// sense under a predicate that re-validates the finding on every
// candidate; this file is the single place such predicates are built,
// shared by cmd/mjreduce (interactive reduction) and the campaign
// auto-reducer (corpus.go), so the two can never drift apart on what
// "still triggers the bug" means. Fault localization (blame.go) pins
// its probes to the same signatures.
//
// Every predicate is built as a reduce.Test: each evaluation runs
// fresh VMs, so it is safe for concurrent use, and it passes the
// reducer's stop flag into its runs, so a superseded evaluation ends
// within vm.StopPoll steps. The reduce.Predicate methods wrap the same
// tests with no stop flag.

package harness

import (
	"fmt"
	"sync/atomic"

	"artemis/internal/bugs"
	"artemis/internal/bytecode"
	"artemis/internal/lang/ast"
	"artemis/internal/profiles"
	"artemis/internal/reduce"
	"artemis/internal/vm"
)

// KeepConfig builds re-validation predicates for reduction. Each
// predicate evaluation costs at most two VM runs (the seeded-defect VM
// with its default JIT policy, and pure interpretation as the
// reference), each bounded by StepLimit.
type KeepConfig struct {
	Profile *profiles.Profile
	// Bugs is the defect set the predicate hunts in; nil reduces
	// against the correct VM (only useful for harness self-tests).
	Bugs bugs.Set
	// StepLimit bounds each predicate run (0 = the Options default).
	StepLimit int64
}

func (kc KeepConfig) limit() int64 {
	if kc.StepLimit != 0 {
		return kc.StepLimit
	}
	return defaultStepLimit
}

// run executes bp under cfg within the predicate step budget; setting
// stop abandons the run.
func (kc KeepConfig) run(cfg vm.Config, bp *bytecode.Program, stop *atomic.Bool) *vm.Output {
	cfg.StepLimit = kc.limit()
	cfg.Stop = stop
	return vm.Run(cfg, bp).Output
}

// runJIT executes p on the seeded-defect VM with its default policy.
func (kc KeepConfig) runJIT(p *ast.Program, stop *atomic.Bool) *vm.Output {
	return kc.run(kc.Profile.VMConfigWithBugs(kc.Bugs), Compile(p), stop)
}

// runBoth executes p on the seeded-defect VM and then on the
// interpreter. When the first run is inconclusive the interpreted run
// is skipped and interp is nil: every predicate comparing the two
// rejects a timed-out run whatever the other one does.
func (kc KeepConfig) runBoth(p *ast.Program, stop *atomic.Bool) (jit, interp *vm.Output) {
	bp := Compile(p)
	jit = kc.run(kc.Profile.VMConfigWithBugs(kc.Bugs), bp, stop)
	if !jit.Conclusive() {
		return jit, nil
	}
	return jit, kc.run(kc.Profile.InterpreterConfig(), bp, stop)
}

// crashSignature returns the dedup signature of a run that crashed
// the VM, or "" when it did not crash. It and divergenceSignature are
// the one definition of "still triggers the finding" that reduction
// and fault localization (blame.go: confirmation, pass and space
// localization, defect isolation) share.
func crashSignature(profile string, out *vm.Output) string {
	if out.Term != vm.TermCrash {
		return ""
	}
	return signatureOf(CrashFinding, profile, componentOf(out.Detail), out.Detail)
}

// divergenceSignature returns the mis-compilation signature of out
// against the reference ref, or "" when the two agree or either is
// missing or inconclusive: a timed-out or stopped run proves nothing.
func divergenceSignature(profile string, ref, out *vm.Output) string {
	if ref == nil || !ref.Conclusive() || !out.Conclusive() || out.Equivalent(ref) {
		return ""
	}
	return signatureOf(Miscompilation, profile, "", fmt.Sprintf("%s-vs-%s", ref.Term, out.Term))
}

// signature runs p and returns the signature of the kind of finding
// it triggers, or "" when it triggers none: a crash of the
// seeded-defect VM, or (Miscompilation) a divergence of its output
// from the interpreted reference. The interpreted run stands in for
// the original seed reference: JoNM mutants are semantics-preserving,
// so for a genuine mis-compilation the two references agree.
func (kc KeepConfig) signature(kind FindingKind, p *ast.Program, stop *atomic.Bool) string {
	if kind == CrashFinding {
		return crashSignature(kc.Profile.Name, kc.runJIT(p, stop))
	}
	jit, interp := kc.runBoth(p, stop)
	return divergenceSignature(kc.Profile.Name, interp, jit)
}

// keep keeps programs that trigger a finding of kind (CrashFinding or
// Miscompilation) with a signature that match accepts. Inconclusive
// runs are never kept.
func (kc KeepConfig) keep(kind FindingKind, match func(sig string) bool) reduce.Test {
	return func(p *ast.Program, stop *atomic.Bool) bool {
		sig := kc.signature(kind, p, stop)
		return sig != "" && match(sig)
	}
}

func anySignature(string) bool { return true }

func signatureIs(want string) func(string) bool {
	return func(sig string) bool { return sig == want }
}

// CrashSignature keeps programs that crash with exactly the given
// dedup signature — the predicate the campaign auto-reducer uses so a
// reduced reproducer provably still triggers the same finding.
func (kc KeepConfig) CrashSignature(sig string) reduce.Predicate {
	return kc.keep(CrashFinding, signatureIs(sig)).Predicate()
}

// MiscompileSignature keeps programs whose seeded-defect run diverges
// from interpretation with exactly the given mis-compilation
// signature.
func (kc KeepConfig) MiscompileSignature(sig string) reduce.Predicate {
	return kc.keep(Miscompilation, signatureIs(sig)).Predicate()
}

// TestForMode maps a cmd/mjreduce -mode value to its test, for
// reduce.ReduceParallel (Predicate gives the one-at-a-time form): "crash"
// keeps programs that crash the seeded-defect VM (any crash), "diff"
// programs whose seeded-defect output differs from the interpreted
// reference (timeouts are inconclusive and never kept).
func (kc KeepConfig) TestForMode(mode string) (reduce.Test, error) {
	kind, err := kindForMode(mode)
	if err != nil {
		return nil, err
	}
	return kc.keep(kind, anySignature), nil
}

// kindForMode maps a cmd/mjreduce -mode value to the finding kind its
// predicate keeps.
func kindForMode(mode string) (FindingKind, error) {
	switch mode {
	case "crash":
		return CrashFinding, nil
	case "diff":
		return Miscompilation, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want diff or crash)", mode)
	}
}

// keepForFinding returns the signature-preserving test for an
// auto-reduced finding, or nil when the finding kind has no cheap
// re-validation predicate (performance findings need timeout-priced
// runs per candidate, far too slow for an in-campaign stage).
func keepForFinding(kc KeepConfig, f Finding) reduce.Test {
	if f.Kind == Performance {
		return nil
	}
	return kc.keep(f.Kind, signatureIs(f.Signature))
}

// keepConfig is the campaign's KeepConfig: the profile, defect set and
// step budget its own runs use.
func (o Options) keepConfig() KeepConfig {
	return KeepConfig{Profile: o.Profile, Bugs: o.bugSet(), StepLimit: o.StepLimit}
}
