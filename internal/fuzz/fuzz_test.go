package fuzz

import (
	"testing"
	"testing/quick"

	"artemis/internal/bytecode"
	"artemis/internal/jit"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
	"artemis/internal/lang/sem"
	"artemis/internal/vm"
)

func newCorrectJIT(maxTier int) vm.JITCompiler {
	return jit.New(jit.Options{MaxTier: maxTier})
}

func TestGenerateValidAndDeterministic(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p1 := Generate(Options{Seed: seed})
		p2 := Generate(Options{Seed: seed})
		if ast.Print(p1) != ast.Print(p2) {
			t.Fatalf("seed %d: generation is not deterministic", seed)
		}
	}
	a := Generate(Options{Seed: 1})
	b := Generate(Options{Seed: 2})
	if ast.Print(a) == ast.Print(b) {
		t.Error("different seeds produced identical programs")
	}
}

func TestGeneratedProgramsRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		p := Generate(Options{Seed: seed})
		src := ast.Print(p)
		p2, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: reparse failed: %v\n%s", seed, err, src)
		}
		if ast.Print(p2) != src {
			t.Fatalf("seed %d: print not stable", seed)
		}
	}
}

// TestGeneratedProgramsTerminate runs seeds in the interpreter and
// checks they terminate quickly (the JavaFuzzer property: seeds avoid
// lengthy loops, so the compilation space must be opened by mutation).
func TestGeneratedProgramsTerminate(t *testing.T) {
	tooSlow := 0
	for seed := int64(0); seed < 150; seed++ {
		p := Generate(Options{Seed: seed})
		info := sem.MustAnalyze(p)
		bp := bytecode.MustCompile(info)
		res := vm.Run(vm.Config{StepLimit: 20_000_000}, bp)
		switch res.Output.Term {
		case vm.TermNormal, vm.TermException:
		case vm.TermTimeout:
			tooSlow++
		default:
			t.Fatalf("seed %d: unexpected termination %v (%s)", seed, res.Output.Term, res.Output.Detail)
		}
	}
	// A small tail of slow seeds is expected (nested loops compose
	// multiplicatively); the harness discards them, like the paper's
	// 2-minute cutoff discards slow seeds (Section 4.3).
	if tooSlow > 10 {
		t.Errorf("%d/150 seeds hit the step limit; seeds should mostly be short-running", tooSlow)
	}
}

// TestSeedsRarelyReachThresholds verifies the premise of the paper's
// evaluation setup: with production-like thresholds, seed programs
// essentially never trigger JIT compilation on their own.
func TestSeedsRarelyReachThresholds(t *testing.T) {
	compiled := 0
	for seed := int64(0); seed < 100; seed++ {
		p := Generate(Options{Seed: seed})
		bp := bytecode.MustCompile(sem.MustAnalyze(p))
		v := vm.New(vm.Config{
			EntryThresholds: []int64{5000, 10000},
			OSRThresholds:   []int64{5000, 10000},
			StepLimit:       20_000_000,
		}, bp)
		v.Run()
		for _, m := range bp.Methods {
			st := v.MethodStateByName(m.Name)
			if st != nil && st.Counters.Temperature([]int64{5000, 10000}) > 0 {
				compiled++
				break
			}
		}
	}
	if compiled > 10 {
		t.Errorf("%d/100 seeds got hot on their own; expected them to stay cold", compiled)
	}
}

// TestDifferentialInterpreterVsTiers is the self-validation property:
// on a correct VM, every compilation choice yields the same output.
// It drives fuzzed programs through the interpreter and both forced
// JIT tiers via testing/quick.
func TestDifferentialInterpreterVsTiers(t *testing.T) {
	if testing.Short() {
		t.Skip("differential property test is slow")
	}
	check := func(seed int64) bool {
		p := Generate(Options{Seed: seed})
		bp := bytecode.MustCompile(sem.MustAnalyze(p))
		ref := vm.Run(vm.Config{StepLimit: 20_000_000}, bp)
		if ref.Output.Term == vm.TermTimeout {
			return true // inconclusive
		}
		for _, tier := range []int{1, 2} {
			res := vm.Run(vm.Config{
				JIT:       newCorrectJIT(tier),
				StepLimit: 100_000_000,
				Policy: &vm.ForcedPolicy{
					Tier:    tier,
					Compile: func(string, int64) bool { return true },
				},
			}, bp)
			if !res.Output.Equivalent(ref.Output) {
				t.Logf("seed %d tier %d: interp=%v/%q jit=%v/%q",
					seed, tier, ref.Output.Term, ref.Output.Detail,
					res.Output.Term, res.Output.Detail)
				t.Logf("interp lines: %v", ref.Output.Lines)
				t.Logf("jit lines:    %v", res.Output.Lines)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}
