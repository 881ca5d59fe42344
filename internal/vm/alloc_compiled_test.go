package vm_test

import (
	"fmt"
	"testing"

	"artemis/internal/bytecode"
	"artemis/internal/jit"
	"artemis/internal/lang/parser"
	"artemis/internal/lang/sem"
	"artemis/internal/vm"
)

// TestCompiledCallAllocations extends TestSteadyStateRunAllocations to
// compiled code: a compiled call must allocate nothing, so a run whose
// compiled callee is invoked 2N times allocates no more than one that
// invokes it N times. Frames, their GC root scanners, the root pop
// function and call-argument buffers are all reused across calls.
func TestCompiledCallAllocations(t *testing.T) {
	allocs := func(calls int) float64 {
		prog, err := parser.Parse(fmt.Sprintf(`class T {
            int[] buf = new int[8];
            int leaf(int x, int y) { return x * 3 + y; }
            int callee(int x, int y) {
                int a = leaf(x, y);
                buf[x & 7] = a;
                return a ^ (y >> 1);
            }
            void main() {
                int s = 0;
                for (int i = 0; i < %d; i++) { s += callee(i, s); }
                print(s);
            }
        }`, calls))
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		bp := bytecode.MustCompile(sem.MustAnalyze(prog))
		run := func() *vm.Result {
			return vm.Run(vm.Config{
				JIT: jit.New(jit.Options{MaxTier: 2}),
				Policy: &vm.ForcedPolicy{
					Tier:    2,
					Compile: func(string, int64) bool { return true },
				},
			}, bp)
		}
		if res := run(); res.Output.Term != vm.TermNormal || res.Compilations != 3 {
			t.Fatalf("%d calls: %v (%s) after %d compilations, want a normal run of compiled main, callee and leaf",
				calls, res.Output.Term, res.Output.Detail, res.Compilations)
		}
		return testing.AllocsPerRun(5, func() { run() })
	}
	// The slack of 8 absorbs the few objects the race detector's runtime
	// allocates on its own; one allocation per call would add 1000.
	n, n2 := allocs(500), allocs(1000)
	if n2 > n+8 {
		t.Errorf("a run with 1000 compiled calls allocates %.0f objects, one with 500 allocates %.0f: compiled calls allocate", n2, n)
	}
}
