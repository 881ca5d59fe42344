package jit

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"
	"testing"

	"artemis/internal/bugs"
	"artemis/internal/bytecode"
	"artemis/internal/fuzz"
	"artemis/internal/lang/sem"
	"artemis/internal/vm"
)

// stepGoldenDigest is the sha256 of every run line TestStepAccountingGolden
// writes. Step accounting is semantics: it decides timeouts and
// performance findings, so an executor change that moves a single
// charge point changes campaign results. Re-record this value only
// for a change that means to move step counts, together with the
// campaign goldens that move with it.
const stepGoldenDigest = "c611aa189e36147d5237be547a9a879d6498bfd6021bc3e295340a4ffadb1782"

// stepGoldenSeeds is the number of fuzzer seeds the golden runs.
const stepGoldenSeeds = 96

func forceAll(string, int64) bool { return true }

// writeRunLine adds one run's observable outcome and bookkeeping to h.
func writeRunLine(h hash.Hash, res *vm.Result) {
	out := res.Output
	fmt.Fprintf(h, "%s|%s|%d|%016x|%d|%d|%d|%d\n", out.Term, out.Detail, res.Steps, out.Hash(),
		res.GCRuns, res.Deopts, res.Compilations, res.OSREntries)
}

// TestStepAccountingGolden pins the exact steps compiled code charges
// and where it charges them. It hashes one line per run (termination,
// detail, steps, output hash, GC runs, deopts, compilations and OSR
// entries) over
//
//   - fuzzer seeds run at forced tier 1, at forced tier 2, and tiered
//     with tiny thresholds, each on the correct JIT and on every
//     profile's seeded-defect set, under a step limit most long runs
//     reach, so the step count at every timeout is pinned too; and
//   - a StepLimit sweep, one step at a time, over a method with 72
//     loop-carried locals, whose loop edges carry more than 64 phi
//     moves each: the limit then lands on every charge point of the
//     run, including the ones inside those move sequences.
func TestStepAccountingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("step-accounting golden is not short")
	}
	h := sha256.New()
	sets := []bugs.Set{nil}
	for _, jvm := range []string{"hotspot", "openj9", "art"} {
		sets = append(sets, bugs.SetForJVM(jvm))
	}
	for seed := int64(0); seed < stepGoldenSeeds; seed++ {
		bp := bytecode.MustCompile(sem.MustAnalyze(fuzz.Generate(fuzz.Options{Seed: seed})))
		for _, set := range sets {
			for _, tier := range []int{1, 2} {
				writeRunLine(h, vm.Run(vm.Config{
					JIT:       New(Options{MaxTier: 2, Bugs: set}),
					StepLimit: 400_000,
					Policy:    &vm.ForcedPolicy{Tier: tier, Compile: forceAll},
				}, bp))
			}
			writeRunLine(h, vm.Run(vm.Config{
				JIT:             New(Options{MaxTier: 2, Bugs: set}),
				EntryThresholds: []int64{30, 120},
				OSRThresholds:   []int64{40, 160},
				StepLimit:       400_000,
			}, bp))
		}
	}

	for _, sink := range []bool{false, true} {
		// The field store adds exactly one machine instruction to the
		// loop body, so the two variants' iteration lengths differ in
		// parity and together put a charge point on every position of
		// the move sequences.
		bp := compileSrc(t, wideLoopSrc(72, sink))
		if n := longestMoveRun(t, bp, "f"); n <= 64 {
			t.Fatalf("longest move run of f is %d, want > 64", n)
		}
		cfg := func(limit int64) vm.Config {
			return vm.Config{
				JIT:       New(Options{MaxTier: 2}),
				StepLimit: limit,
				Policy:    &vm.ForcedPolicy{Tier: 2, Compile: forceAll},
			}
		}
		full := vm.Run(cfg(0), bp)
		if full.Output.Term != vm.TermNormal {
			t.Fatalf("wide loop: %v %s", full.Output.Term, full.Output.Detail)
		}
		for limit := int64(1); limit <= full.Steps; limit++ {
			writeRunLine(h, vm.Run(cfg(limit), bp))
		}
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != stepGoldenDigest {
		t.Errorf("step-accounting digest = %s, want %s", got, stepGoldenDigest)
	}
}

// wideLoopSrc returns a program whose method f keeps k locals live
// around one loop, so each loop edge resolves k phis with k moves.
func wideLoopSrc(k int, sink bool) string {
	var b strings.Builder
	b.WriteString("class T {\n    int s;\n    int f(int n) {\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "        int a%d = %d;\n", i, i)
	}
	b.WriteString("        for (int i = 0; i < n; i++) {\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "            a%d = a%d + a%d;\n", i, i, (i+1)%k)
	}
	if sink {
		b.WriteString("            s = a0;\n")
	}
	b.WriteString("            print(a0);\n        }\n        return a0")
	for i := 1; i < k; i++ {
		fmt.Fprintf(&b, " + a%d", i)
	}
	b.WriteString(";\n    }\n    void main() { print(f(70)); }\n}\n")
	return b.String()
}

// longestMoveRun compiles method name at tier 2 and returns the length
// of its longest straight run of frame moves and constant loads.
func longestMoveRun(t *testing.T, bp *bytecode.Program, name string) int {
	t.Helper()
	mi := -1
	for i, m := range bp.Methods {
		if m.Name == name {
			mi = i
		}
	}
	code, cerr := New(Options{MaxTier: 2}).Compile(vm.CompileRequest{Prog: bp, MethodIndex: mi, Tier: 2, OSRLoopID: -1})
	if cerr != nil {
		t.Fatalf("compile %s: %s", name, cerr.Msg)
	}
	best := 0
	for _, in := range code.(*Code).ins {
		switch in.op {
		case mGroup:
			best = max(best, int(in.w))
		case mGroupJmp:
			best = max(best, int(in.w)-1)
		}
	}
	return best
}
