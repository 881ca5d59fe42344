package reduce

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// when the budget runs out inside a window of unsettled candidates
// (MaxEvals 1, 5 and 17), and no evaluation is still running when it
// returns. The same holds for the memoized Test, built afresh for each
// reduction.
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
				for _, memo := range []bool{false, true} {
					var live, stopped atomic.Int64
					var keep Test = func(p *ast.Program, stop *atomic.Bool) bool {
						live.Add(1)
						defer live.Add(-1)
						kept := c.keep(p, stop)
						if stop != nil && stop.Load() {
							stopped.Add(1)
						}
						return kept
					}
					if memo {
						keep = keep.Memo()
					}
					name := fmt.Sprintf("%s MaxEvals=%d workers=%d memo=%t", c.name, maxEvals, workers, memo)
					r := newReducer(c.prog, keep, workers, opts)
					ok := r.run(opts.MaxRounds)
					if n := live.Load(); n != 0 {
						t.Errorf("%s: %d evaluations still running after the call", name, n)
					}
					if ok != wantOK || ast.Print(r.cur) != ast.Print(want) {
						t.Errorf("%s: reduced program differs from the one-at-a-time reduction:\n%s\nwant:\n%s",
							name, ast.Print(r.cur), ast.Print(want))
					}
					if r.evals != calls {
						t.Errorf("%s: counted %d evaluations, the one-at-a-time reduction made %d", name, r.evals, calls)
					}
					if workers == 1 && stopped.Load() != 0 {
						t.Errorf("%s: a one-at-a-time evaluation was stopped", name)
					}
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

// TestWindowDoesNotWaitOnOldest: a finished evaluation frees its
// worker while an older one is still running. The first candidate's
// evaluation returns only once workers+1 candidates have started, which
// a window that waits on its oldest verdict never allows; the bounded
// wait turns that into a failure instead of a hang.
func TestWindowDoesNotWaitOnOldest(t *testing.T) {
	p := mustParse(t, `class T {
    int junk1(int x) { return x * 3; }
    int junk2(int x) { return x - 11; }
    int junk3(int x) { return x + 5; }
    int junk4(int x) { return x ^ 6; }
    int junk5(int x) { return x * 7; }
    int junk6(int x) { return x - 8; }
    void main() { print(7); }
}`)
	for _, workers := range []int{2, 4} {
		var started atomic.Int64
		enough := make(chan struct{})
		var once sync.Once
		var waited atomic.Bool
		// The precondition probe (stop == nil) keeps the input; every
		// candidate is rejected, and method removal tries junk1 first.
		keep := func(q *ast.Program, stop *atomic.Bool) bool {
			if stop == nil {
				return true
			}
			if started.Add(1) == int64(workers+1) {
				once.Do(func() { close(enough) })
			}
			if q.Class.Methods[0].Name != "junk1" {
				select {
				case <-enough:
				case <-time.After(10 * time.Second):
					waited.Store(true)
				}
			}
			return false
		}
		ReduceParallel(p, keep, workers, Options{MaxRounds: 1})
		if waited.Load() {
			t.Errorf("workers=%d: the first candidate's evaluation waited 10 s, and no candidate after the first %d started while it ran",
				workers, workers)
		}
	}
}

// TestMemoSkipsRepeats: the crash reduction proposes some candidates
// more than once, and the memoized Test answers the repeats without
// running the inner Test.
func TestMemoSkipsRepeats(t *testing.T) {
	p := mustParse(t, crashSrc)
	count := func(n *int) Test {
		return func(q *ast.Program, stop *atomic.Bool) bool {
			*n++
			return barrierCrash(q, stop)
		}
	}
	var plain, memo int
	want, _ := ReduceParallel(p, count(&plain), 1, Options{})
	got, _ := ReduceParallel(p, count(&memo).Memo(), 1, Options{})
	if ast.Print(got) != ast.Print(want) {
		t.Errorf("memoized reduction gave\n%s\nwant\n%s", ast.Print(got), ast.Print(want))
	}
	t.Logf("inner Test ran %d times without the memo, %d with it", plain, memo)
	if memo >= plain {
		t.Errorf("the memo saved no runs: %d with it, %d without", memo, plain)
	}
}

// TestMemoDropsStoppedVerdicts: a verdict reached while the stop flag
// was set, before or during the evaluation, is never returned for a
// later candidate; a verdict reached unstopped is.
func TestMemoDropsStoppedVerdicts(t *testing.T) {
	p := mustParse(t, `class T { void main() { print(1); } }`)
	runs := 0
	var raise *atomic.Bool // the evaluation sets this flag while it runs
	memo := Test(func(_ *ast.Program, stop *atomic.Bool) bool {
		runs++
		if raise != nil {
			raise.Store(true)
		}
		return stop == nil || !stop.Load()
	}).Memo()

	var before atomic.Bool
	before.Store(true)
	if memo(p, &before) {
		t.Fatal("the inner Test kept a stopped evaluation")
	}
	var during atomic.Bool
	raise = &during
	if memo(p, &during) {
		t.Fatal("the inner Test kept an evaluation stopped while it ran")
	}
	raise = nil
	var never atomic.Bool
	if !memo(p, &never) {
		t.Error("a stopped evaluation's verdict was returned for a later candidate")
	}
	if !memo(p, nil) || runs != 3 {
		t.Errorf("the inner Test ran %d times, want 3: the unstopped verdict was not remembered", runs)
	}
}
