package fuzz

import (
	"testing"

	"artemis/internal/bytecode"
	"artemis/internal/lang/sem"
	"artemis/internal/vm"
)

func TestStressDifferential(t *testing.T) {
	bad := 0
	for seed := int64(1000); seed < 3000; seed++ {
		p := Generate(Options{Seed: seed})
		bp := bytecode.MustCompile(sem.MustAnalyze(p))
		ref := vm.Run(vm.Config{StepLimit: 5_000_000}, bp)
		if ref.Output.Term == vm.TermTimeout {
			continue
		}
		for _, tier := range []int{1, 2} {
			res := vm.Run(vm.Config{
				JIT:       newCorrectJIT(tier),
				StepLimit: 40_000_000,
				Policy: &vm.ForcedPolicy{Tier: tier,
					Compile: func(string, int64) bool { return true }},
			}, bp)
			if !res.Output.Equivalent(ref.Output) {
				t.Errorf("seed %d tier %d: %v/%q vs %v/%q", seed, tier,
					ref.Output.Term, ref.Output.Detail, res.Output.Term, res.Output.Detail)
				bad++
			}
		}
		// Tiered with tiny thresholds: exercises OSR + deopt + tier-up.
		res := vm.Run(vm.Config{
			JIT:             newCorrectJIT(2),
			EntryThresholds: []int64{30, 120},
			OSRThresholds:   []int64{40, 160},
			StepLimit:       40_000_000,
		}, bp)
		if res.Output.Term != vm.TermTimeout && !res.Output.Equivalent(ref.Output) {
			t.Errorf("seed %d tiered: %v/%q vs %v/%q lines=%v/%v", seed,
				ref.Output.Term, ref.Output.Detail, res.Output.Term, res.Output.Detail,
				trunc(ref.Output.Lines), trunc(res.Output.Lines))
			bad++
		}
		if bad > 5 {
			t.Fatal("too many failures")
		}
	}
}

func trunc(l []string) []string {
	if len(l) > 5 {
		return l[:5]
	}
	return l
}
