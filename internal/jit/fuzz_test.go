package jit

import (
	"math/rand"
	"slices"
	"testing"

	"artemis/internal/bytecode"
	"artemis/internal/fuzz"
	"artemis/internal/jonm"
	"artemis/internal/lang/sem"
	"artemis/internal/vm"
)

// fuzzStepLimit bounds each FuzzJIT run; generated programs may loop.
const fuzzStepLimit = 2_000_000

// FuzzJIT checks the correct JIT, with the IR validator on, on
// generated programs: fuzz.Generate(seed) when mutant is 0, and
// otherwise one JoNM mutant of it, drawn with mutant as the mutation
// RNG's seed. Every input is a valid program, so every input reaches
// the JIT:
//   - every regular and OSR compile request at tiers 1 and 2 succeeds,
//     except an OSR request at a loop header no path from the method
//     entry reaches, which fails benignly (no OSR entry);
//   - runs forced to compile every method at tier 1, and at tier 2,
//     print what the interpreter prints whenever both runs are
//     conclusive.
//
// Tier-2 requests carry the profile an interpreted run collected, so
// speculation, guards and their frame states are compiled too. The
// mutants' synthesized loops run at most a hundred iterations (a
// campaign's run thousands, to heat methods up; forced compilation
// needs no heat), so most forced runs end inside fuzzStepLimit and are
// compared.
func FuzzJIT(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, mutant uint8) {
		prog := fuzz.Generate(fuzz.Options{Seed: seed})
		info := sem.MustAnalyze(prog)
		bp := bytecode.MustCompile(info)
		if mutant != 0 {
			_, rep, err := jonm.Mutate(prog, &jonm.Config{
				Min: 20, Max: 100, StepMax: 4,
				Rand:     rand.New(rand.NewSource(int64(mutant))),
				SeedInfo: info,
			})
			if err != nil {
				t.Fatal(err)
			}
			bp = bytecode.MustCompileDelta(rep.Info, bp, rep.Mutated)
		}
		checkForcedRuns(t, bp, checkEveryRequest(t, bp))
	})
}

// checkEveryRequest requests every regular and OSR entry of every
// method of bp at tiers 1 and 2 and fails on any error but the benign
// one for an unreachable loop header. It returns the output of the
// interpreted run whose profile the requests carry.
func checkEveryRequest(t *testing.T, bp *bytecode.Program) *vm.Output {
	t.Helper()
	interp := vm.New(vm.Config{StepLimit: fuzzStepLimit}, bp)
	ref := interp.Run().Output
	jit := New(Options{MaxTier: 2, ValidateIR: true})
	for mi, m := range bp.Methods {
		depths := bytecode.StackDepths(m)
		prof := interp.MethodStateByName(m.Name).Profile
		for tier := 1; tier <= 2; tier++ {
			for loop := -1; loop < len(m.Loops); loop++ {
				_, cerr := jit.Compile(vm.CompileRequest{
					Prog: bp, MethodIndex: mi, Tier: tier, OSRLoopID: loop,
					Profile: prof, Speculate: true,
				})
				unreachable := loop >= 0 && depths[m.Loops[loop].HeadPC] != 0
				switch {
				case unreachable && (cerr == nil || cerr.Crash):
					t.Fatalf("%s loop %d, tier %d: OSR request at an unreachable header returned error %v, want a benign failure", m.Name, loop, tier, cerr)
				case !unreachable && cerr != nil:
					t.Fatalf("%s loop %d, tier %d: %s", m.Name, loop, tier, cerr.Msg)
				}
			}
		}
	}
	return ref
}

// checkForcedRuns compares forced tier-1 and tier-2 runs of bp with ref,
// the interpreter's output.
func checkForcedRuns(t *testing.T, bp *bytecode.Program, ref *vm.Output) {
	t.Helper()
	if !ref.Conclusive() {
		return
	}
	for tier := 1; tier <= 2; tier++ {
		out := vm.Run(vm.Config{
			JIT:       New(Options{MaxTier: 2, ValidateIR: true}),
			Policy:    &vm.ForcedPolicy{Tier: tier, Compile: forceAll},
			StepLimit: fuzzStepLimit,
		}, bp).Output
		if out.Conclusive() && !out.Equivalent(ref) {
			t.Fatalf("forced tier %d: %s %q %v, interpreter: %s %q %v", tier,
				out.Term, out.Detail, out.Lines, ref.Term, ref.Detail, ref.Lines)
		}
	}
}

// TestOSRAtUnreachableLoop: fuzzer seed 26 has loops in method m6 that
// no path from the entry reaches. Their headers have no stack depth, so
// SSA construction cannot start there (a pop at depth -1 would panic):
// an OSR request there must fail benignly, and every other request of
// the program must compile.
func TestOSRAtUnreachableLoop(t *testing.T) {
	bp := bytecode.MustCompile(sem.MustAnalyze(fuzz.Generate(fuzz.Options{Seed: 26})))
	jit := New(Options{MaxTier: 2, ValidateIR: true})
	mi := slices.IndexFunc(bp.Methods, func(m *bytecode.Method) bool { return m.Name == "m6" })
	if mi < 0 {
		t.Fatal("seed 26 has no method m6")
	}
	for tier := 1; tier <= 2; tier++ {
		for loop := 0; loop <= 1; loop++ {
			code, cerr := jit.Compile(vm.CompileRequest{Prog: bp, MethodIndex: mi, Tier: tier, OSRLoopID: loop})
			if code != nil || cerr == nil || cerr.Crash {
				t.Errorf("tier %d, loop %d: code %v, error %v; want a benign compile error", tier, loop, code, cerr)
			}
		}
	}
	checkEveryRequest(t, bp)
}
