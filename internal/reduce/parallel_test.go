package reduce

import (
	"fmt"
	"sync/atomic"
	"testing"

	"artemis/internal/bugs"
	"artemis/internal/bytecode"
	"artemis/internal/fuzz"
	"artemis/internal/jit"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/sem"
	"artemis/internal/vm"
)

// crashSrc crashes a VM carrying oj-gc-barrier inside the garbage
// collector once main is compiled; the junk around it gives the
// reducer methods, fields and statements to remove.
const crashSrc = `class T {
    long total = 0;
    int unused = 7;
    int noise(int x) { int y = x * 3; y += 1; return y; }
    void spin(int n) { for (int i = 0; i < n; i++) { total += i; } }
    void main() {
        int k = noise(2);
        spin(k);
        int[] a = new int[8];
        for (int r = 0; r < 500; r++) {
            a[0] = r;
            long[] junk = new long[8];
            total += a[0] + (int)junk[0];
            if (r == 3) { print(k); }
        }
        print(total);
        print(noise(k));
    }
}`

// run executes p with the given config base, polling stop.
func run(cfg vm.Config, p *ast.Program, stop *atomic.Bool) *vm.Output {
	info, err := sem.Analyze(p)
	if err != nil {
		panic(err)
	}
	cfg.StepLimit = 2_000_000
	cfg.Stop = stop
	return vm.Run(cfg, bytecode.MustCompile(info)).Output
}

// barrierCrash keeps programs that crash a tier-2 VM carrying
// oj-gc-barrier with every method compiled.
func barrierCrash(p *ast.Program, stop *atomic.Bool) bool {
	cfg := vm.Config{
		JIT:        jit.New(jit.Options{MaxTier: 2, Bugs: bugs.NewSet("oj-gc-barrier")}),
		GCInterval: 64,
		Policy: &vm.ForcedPolicy{
			Tier:    2,
			Compile: func(string, int64) bool { return true },
		},
	}
	return run(cfg, p, stop).Term == vm.TermCrash
}

// sameFirstLine keeps programs whose first interpreted line is want.
func sameFirstLine(want string) Test {
	return func(p *ast.Program, stop *atomic.Bool) bool {
		out := run(vm.Config{}, p, stop)
		return out.Conclusive() && out.NLines >= 1 && out.Lines[0] == want
	}
}

// budgeted is the count-based budget the campaign applied to its
// predicate before the reducer counted evaluations itself: the
// reference the reducer's MaxEvals must reproduce.
func budgeted(keep Predicate, evals int, calls *int) Predicate {
	return func(p *ast.Program) bool {
		if evals > 0 && *calls >= evals {
			return false
		}
		*calls++
		return keep(p)
	}
}

// TestReduceParallelMatchesSequential: at 1, 2 and 4 workers the
// reducer prints the same program and counts the same evaluations as
// a one-at-a-time reduction under a stateful budgeted predicate, also
// when the budget runs out inside a window of in-flight candidates
// (MaxEvals 1, 5 and 17), and no evaluation is still running when it
// returns.
func TestReduceParallelMatchesSequential(t *testing.T) {
	type tc struct {
		name string
		prog *ast.Program
		keep Test
	}
	cases := []tc{{"crash", mustParse(t, crashSrc), barrierCrash}}
	for seed := int64(0); len(cases) < 4 && seed < 20; seed++ {
		p := fuzz.Generate(fuzz.Options{Seed: seed})
		out := run(vm.Config{}, p, nil)
		if !out.Conclusive() || out.NLines == 0 {
			continue
		}
		cases = append(cases, tc{fmt.Sprintf("fuzz seed %d", seed), p, sameFirstLine(out.Lines[0])})
	}
	if !cases[0].keep(cases[0].prog, nil) {
		t.Fatal("crash reproducer does not crash the oj-gc-barrier VM")
	}
	for _, c := range cases {
		for _, maxEvals := range []int{1, 5, 17, 0} {
			opts := Options{MaxRounds: 3, MaxEvals: maxEvals}
			calls := 0
			want, wantOK := ReduceChecked(c.prog, budgeted(c.keep.Predicate(), maxEvals, &calls), opts)
			for _, workers := range []int{1, 2, 4} {
				var live, stopped atomic.Int64
				keep := func(p *ast.Program, stop *atomic.Bool) bool {
					live.Add(1)
					defer live.Add(-1)
					kept := c.keep(p, stop)
					if stop != nil && stop.Load() {
						stopped.Add(1)
					}
					return kept
				}
				r := newReducer(c.prog, keep, workers, opts)
				ok := r.run(opts.MaxRounds)
				if n := live.Load(); n != 0 {
					t.Errorf("%s MaxEvals=%d workers=%d: %d evaluations still running after the call", c.name, maxEvals, workers, n)
				}
				if ok != wantOK || ast.Print(r.cur) != ast.Print(want) {
					t.Errorf("%s MaxEvals=%d workers=%d: reduced program differs from the one-at-a-time reduction:\n%s\nwant:\n%s",
						c.name, maxEvals, workers, ast.Print(r.cur), ast.Print(want))
				}
				if r.evals != calls {
					t.Errorf("%s MaxEvals=%d workers=%d: counted %d evaluations, the one-at-a-time reduction made %d",
						c.name, maxEvals, workers, r.evals, calls)
				}
				if workers == 1 && stopped.Load() != 0 {
					t.Errorf("%s MaxEvals=%d: a one-at-a-time evaluation was stopped", c.name, maxEvals)
				}
			}
			if maxEvals == 0 {
				t.Logf("%s: %d -> %d statements in %d evaluations", c.name, ast.ProgramSize(c.prog), ast.ProgramSize(want), calls)
				if ast.ProgramSize(want) >= ast.ProgramSize(c.prog) {
					t.Errorf("%s: nothing was reduced; the comparison is vacuous", c.name)
				}
			}
		}
	}
}

// TestReduceParallelRaisesPanicsInOrder: a panic in the Test surfaces
// on the caller when its candidate's turn comes, and the panic of a
// candidate evaluated only speculatively, after the accepted one, is
// dropped with its evaluation.
func TestReduceParallelRaisesPanicsInOrder(t *testing.T) {
	p := mustParse(t, `class T {
    int junk1(int x) { return x * 3; }
    int junk2(int x) { return x - 11; }
    void main() { print(7); }
}`)
	has := func(q *ast.Program, name string) bool {
		for _, m := range q.Class.Methods {
			if m.Name == name {
				return true
			}
		}
		return false
	}
	// panicking keeps every program but panics on the one that lacks
	// only the given method. Method removal tries junk1 before junk2.
	panicking := func(missing string) Test {
		return func(q *ast.Program, _ *atomic.Bool) bool {
			if has(q, "junk1") != has(q, "junk2") && !has(q, missing) {
				panic("boom")
			}
			return true
		}
	}
	for _, workers := range []int{1, 2, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d: the first candidate's panic was swallowed", workers)
				}
			}()
			ReduceParallel(p, panicking("junk1"), workers, Options{})
		}()
	}
	want, _ := ReduceChecked(p, panicking("junk2").Predicate(), Options{})
	for _, workers := range []int{2, 4} {
		if got, _ := ReduceParallel(p, panicking("junk2"), workers, Options{}); ast.Print(got) != ast.Print(want) {
			t.Errorf("workers=%d: got\n%s\nwant\n%s", workers, ast.Print(got), ast.Print(want))
		}
	}
}
