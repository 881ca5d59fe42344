package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"

	"artemis/internal/blame"
	"artemis/internal/bytecode"
	"artemis/internal/fuzz"
	"artemis/internal/harness"
	"artemis/internal/jonm"
	"artemis/internal/lang/sem"
	"artemis/internal/vm"
)

// Output checks. A run is correct when every round's findings match
// its block's golden signature set, every reported finding re-verifies
// against the reference interpreter, and, in a traced run, the replica
// reproduced the campaign exactly.

// sigSet identifies a round's distinct-finding signature set.
type sigSet struct {
	Count  int    `json:"count"`
	SHA256 string `json:"sha256"`
}

func signatureSet(distinct []finding) sigSet {
	sigs := make([]string, len(distinct))
	for i, f := range distinct {
		sigs[i] = f.Signature
	}
	sort.Strings(sigs)
	sum := sha256.Sum256([]byte(strings.Join(sigs, "\n")))
	return sigSet{Count: len(sigs), SHA256: hex.EncodeToString(sum[:])}
}

// verifyFinding re-derives one reported finding from its seed id and
// mutant id without the harness: it regenerates the seed, replays the
// mutation sequence, and checks the symptom on the seeded-defect VM
// against the interpreter, the reference that does not involve the JIT
// under test. The interpreter gets 16x the step budget, because
// compiled code is charged fewer steps for the same work.
func verifyFinding(w workload, f finding) error {
	prof, set, err := w.profile()
	if err != nil {
		return err
	}
	jitRun := func(bp *bytecode.Program) *vm.Output {
		cfg := prof.VMConfigWithBugs(set)
		cfg.StepLimit = w.StepLimit
		return vm.Run(cfg, bp).Output
	}
	interpRun := func(bp *bytecode.Program) *vm.Output {
		cfg := prof.InterpreterConfig()
		cfg.StepLimit = 16 * w.StepLimit
		return vm.Run(cfg, bp).Output
	}
	seedProg := fuzz.Generate(fuzz.Options{Seed: f.SeedID})
	info := sem.MustAnalyze(seedProg)
	seedBP := bytecode.MustCompile(info)
	bp := seedBP
	if f.MutantID >= 0 {
		mcfg := &jonm.Config{
			Min: prof.SynMin, Max: prof.SynMax, StepMax: prof.SynStepMax,
			Rand:     rand.New(rand.NewSource(f.SeedID * 7919)),
			SeedInfo: info,
		}
		var rep *jonm.Report
		for i := 0; i <= f.MutantID; i++ {
			if _, rep, err = jonm.Mutate(seedProg, mcfg); err != nil {
				return err
			}
		}
		bp = bytecode.MustCompileDelta(rep.Info, seedBP, rep.Mutated)
	}

	switch f.Kind {
	case harness.CrashFinding.String():
		out := jitRun(bp)
		if out.Term != vm.TermCrash || out.Detail != f.Detail {
			return fmt.Errorf("crash does not reproduce: %s %q", out.Term, out.Detail)
		}
		if ref := interpRun(bp); ref.Term == vm.TermCrash {
			return fmt.Errorf("the interpreter crashes too: %q", ref.Detail)
		}
	case harness.Miscompilation.String():
		ref, out := jitRun(seedBP), jitRun(bp)
		if out.Equivalent(ref) || f.Detail != fmt.Sprintf("%s-vs-%s", ref.Term, out.Term) {
			return fmt.Errorf("discrepancy does not reproduce: %s vs %s", ref.Term, out.Term)
		}
		// The mutant is semantics-preserving by the reference
		// interpreter, so the difference is the JIT's.
		seedInt, mutInt := interpRun(seedBP), interpRun(bp)
		if seedInt.Term == vm.TermTimeout || !seedInt.Equivalent(mutInt) {
			return fmt.Errorf("interpreter does not confirm the mutant is equivalent: %s vs %s", seedInt.Term, mutInt.Term)
		}
	case harness.Performance.String():
		if out := jitRun(bp); out.Term != vm.TermTimeout {
			return fmt.Errorf("compiled run no longer exceeds the step budget: %s", out.Term)
		}
		cfg := prof.InterpreterConfig()
		cfg.StepLimit = w.StepLimit
		if out := vm.Run(cfg, bp).Output; out.Term == vm.TermTimeout {
			return fmt.Errorf("interpreted run exceeds the step budget too")
		}
	default:
		return fmt.Errorf("unknown finding kind %q", f.Kind)
	}
	return nil
}

// checkCorpus checks that triage left an entry for every distinct
// finding, and blame for every crash. (A mis-compilation whose
// interpreted reference exceeds the step budget has nothing to
// localize against.)
func checkCorpus(u *roundResult) []string {
	if len(u.Corpus) != len(u.Distinct) {
		return []string{fmt.Sprintf("round at %d: %d corpus entries for %d distinct findings", u.SeedBase, len(u.Corpus), len(u.Distinct))}
	}
	var problems []string
	for i, e := range u.Corpus {
		if u.Distinct[i].Kind == harness.CrashFinding.String() && e.Blame == "" {
			problems = append(problems, fmt.Sprintf("crash finding %q has no blame.json", e.Signature))
		}
	}
	return problems
}

// opFailures counts a round's attempted and failed operations: seeds
// and triaged findings are attempted; a Harness Internal Error, a
// reproducer stored unreduced because it does not re-trigger, and a
// blame verdict of not-reproduced or budget-exhausted are failures.
func opFailures(u *roundResult) (attempted, failed int) {
	attempted = u.Seeds + len(u.Corpus)
	failed = u.InternalErrors
	for _, e := range u.Corpus {
		if strings.Contains(e.ReduceNote, "does not re-trigger") {
			failed++
		}
		if e.Blame == "" {
			continue
		}
		var res blame.Result
		if err := json.Unmarshal([]byte(e.Blame), &res); err != nil ||
			res.PassVerdict == blame.VerdictNotReproduced || res.PassVerdict == blame.VerdictBudget {
			failed++
		}
	}
	return attempted, failed
}

// compareReplica reports where the traced replica departs from the
// untraced campaign of the same round.
func compareReplica(u *roundResult, tr *tracedResult) error {
	if reflect.DeepEqual(u.outcome, tr.outcome) {
		return nil
	}
	a, b := u.outcome, tr.outcome
	switch {
	case a.Runs != b.Runs || a.Mutants != b.Mutants || a.Discarded != b.Discarded || a.Duplicates != b.Duplicates:
		return fmt.Errorf("runs/mutants/discarded/duplicates: campaign %d/%d/%d/%d, replica %d/%d/%d/%d",
			a.Runs, a.Mutants, a.Discarded, a.Duplicates, b.Runs, b.Mutants, b.Discarded, b.Duplicates)
	case len(a.Distinct) != len(b.Distinct):
		return fmt.Errorf("distinct findings: campaign %d, replica %d", len(a.Distinct), len(b.Distinct))
	}
	for i := range a.Distinct {
		if a.Distinct[i] != b.Distinct[i] {
			return fmt.Errorf("distinct finding %d: campaign %+v, replica %+v", i, a.Distinct[i], b.Distinct[i])
		}
	}
	for i := range a.Corpus {
		if i >= len(b.Corpus) || a.Corpus[i] != b.Corpus[i] {
			return fmt.Errorf("corpus entry %d differs: campaign %+v", i, a.Corpus[i])
		}
	}
	return fmt.Errorf("replica outcome differs from the campaign")
}
