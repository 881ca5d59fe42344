package jit

import (
	"slices"
	"strings"
	"testing"

	"artemis/internal/bugs"
	"artemis/internal/bytecode"
	"artemis/internal/lang/parser"
	"artemis/internal/lang/sem"
	"artemis/internal/vm"
)

func compileSrc(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	bp, err := bytecode.Compile(info)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return bp
}

// runModes executes src under (a) pure interpretation, (b) everything
// forced through tier 1, (c) everything forced through tier 2, and
// (d) counter-driven tiered execution with tiny thresholds, asserting
// all four observable outputs agree. This is the compilation-space
// consistency oracle applied to our own VM.
func runModes(t *testing.T, src string) *vm.Output {
	t.Helper()
	bp := compileSrc(t, src)

	interp := vm.Run(vm.Config{}, bp)

	for _, tier := range []int{1, 2} {
		comp := New(Options{MaxTier: tier})
		cfg := vm.Config{
			JIT: comp,
			Policy: &vm.ForcedPolicy{
				Tier:    tier,
				Compile: func(string, int64) bool { return true },
			},
		}
		res := vm.Run(cfg, bp)
		if !res.Output.Equivalent(interp.Output) {
			t.Errorf("tier %d disagrees with interpreter:\n interp: %v %q %v\n tier%d: %v %q %v",
				tier, interp.Output.Term, interp.Output.Detail, interp.Output.Lines,
				tier, res.Output.Term, res.Output.Detail, res.Output.Lines)
		}
	}

	tiered := vm.Run(vm.Config{
		JIT:             New(Options{MaxTier: 2}),
		EntryThresholds: []int64{20, 100},
		OSRThresholds:   []int64{30, 150},
	}, bp)
	if !tiered.Output.Equivalent(interp.Output) {
		t.Errorf("tiered run disagrees with interpreter:\n interp: %v %q %v\n tiered: %v %q %v",
			interp.Output.Term, interp.Output.Detail, interp.Output.Lines,
			tiered.Output.Term, tiered.Output.Detail, tiered.Output.Lines)
	}
	return interp.Output
}

func TestCompiledArithmetic(t *testing.T) {
	runModes(t, `class T {
        long work(int n) {
            long acc = 7L;
            for (int i = 1; i < n; i++) {
                acc += i * 3;
                acc ^= acc << 13;
                acc -= acc >>> 7;
                acc *= 31;
                acc %= 1000000007L;
                if (acc < 0L) { acc = -acc; }
            }
            return acc;
        }
        void main() {
            print(work(1000));
            print(work(1));
        }
    }`)
}

func TestCompiledIntWrapping(t *testing.T) {
	runModes(t, `class T {
        int f(int x) {
            int y = x * 2147483647;
            y += 2147483647;
            y <<= 3;
            y = y >>> 2;
            y /= 3;
            return y - 2147483648 / (x | 1);
        }
        void main() {
            int s = 0;
            for (int i = -50; i < 50; i++) { s ^= f(i); }
            print(s);
        }
    }`)
}

// TestDivisionCornerCases pins division and remainder at their edges
// by value, for both widths: MIN / -1 wraps to MIN, MIN % -1 is 0, and
// x / 0 and x % 0 throw. The operands are parameters, which the
// constant folder never sees, so every mode divides at run time.
func TestDivisionCornerCases(t *testing.T) {
	const methods = `class T {
        long divL(long a, long b) { return a / b; }
        long remL(long a, long b) { return a % b; }
        int divI(int a, int b) { return a / b; }
        int remI(int a, int b) { return a % b; }`
	check := func(out *vm.Output, term vm.TermKind, detail string, lines ...string) {
		t.Helper()
		if out.Term != term || out.Detail != detail || !slices.Equal(out.Lines, lines) {
			t.Errorf("interpreter: %v %q %q, want %v %q %q", out.Term, out.Detail, out.Lines, term, detail, lines)
		}
	}
	out := runModes(t, methods+`
        void main() {
            long minL = -9223372036854775807L - 1L;
            int minI = -2147483647 - 1;
            long acc = 0L;
            for (int i = 0; i < 300; i++) {
                acc += divL(minL, -1L) + remL(minL, -1L) + divI(minI, -1) + remI(minI, -1);
            }
            print(acc);
            print(divL(minL, -1L));
            print(remL(minL, -1L));
            print(divI(minI, -1));
            print(remI(minI, -1));
        }
    }`)
	check(out, vm.TermNormal, "", "-644245094400", "-9223372036854775808", "0", "-2147483648", "0")

	// Each trap ends its run, so each gets a program of its own; the
	// warm-up calls compile the method before the trapping one.
	for _, tc := range []struct{ method, sum string }{
		{"divL", "43838"}, {"remL", "21958"}, {"divI", "43838"}, {"remI", "21958"},
	} {
		out := runModes(t, methods+`
        void main() {
            long acc = 0L;
            for (int i = 1; i <= 300; i++) { acc += `+tc.method+`(7000, i); }
            print(acc);
            print(`+tc.method+`(7000, 0));
        }
    }`)
		check(out, vm.TermException, "ArithmeticException: / by zero (in "+tc.method+")", tc.sum)
	}
}

func TestCompiledArraysAndFields(t *testing.T) {
	runModes(t, `class T {
        int[] data = new int[]{9, 4, 7, 1, 0, 3};
        long sum = 0L;
        void accumulate() {
            for (int i = 0; i < data.length; i++) {
                sum += data[i];
                data[i] = data[i] * 2 + 1;
            }
        }
        void main() {
            for (int r = 0; r < 200; r++) { accumulate(); }
            print(sum);
            for (int i = 0; i < data.length; i++) { print(data[i]); }
        }
    }`)
}

func TestCompiledCallsAndRecursion(t *testing.T) {
	runModes(t, `class T {
        int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
        int dispatch(int k, int v) {
            switch (k % 5) {
            case 0: return v + 1;
            case 1: return v * 2;
            case 2: return v - 3;
            case 3: return v ^ 21;
            default: return -v;
            }
            return 0; // unreachable; the checker treats switch conservatively
        }
        void main() {
            print(fib(18));
            int acc = 0;
            for (int i = 0; i < 500; i++) { acc = dispatch(i, acc); }
            print(acc);
        }
    }`)
}

func TestCompiledExceptionBehaviour(t *testing.T) {
	out := runModes(t, `class T {
        int z = 0;
        int risky(int i) {
            if (i == 777) { return i / z; }
            return i;
        }
        void main() {
            long acc = 0;
            for (int i = 0; i < 1000; i++) { acc += risky(i); }
            print(acc);
        }
    }`)
	if out.Term != vm.TermException || !strings.Contains(out.Detail, "ArithmeticException") {
		t.Fatalf("want ArithmeticException, got %v %q", out.Term, out.Detail)
	}
}

func TestCompiledBoundsCheck(t *testing.T) {
	out := runModes(t, `class T {
        void main() {
            int[] a = new int[10];
            long acc = 0;
            for (int i = 0; i < 2000; i++) { a[i % 10] = i; acc += a[(i * 7) % 10]; }
            print(acc);
            // Now go out of bounds deliberately.
            for (int i = 0; i <= a.length; i++) { acc += a[i]; }
            print(acc);
        }
    }`)
	if out.Term != vm.TermException || !strings.Contains(out.Detail, "ArrayIndexOutOfBounds") {
		t.Fatalf("want AIOOBE, got %v %q", out.Term, out.Detail)
	}
}

func TestOSRLongLoop(t *testing.T) {
	bp := compileSrc(t, `class T {
        void main() {
            long acc = 1;
            for (int i = 0; i < 100000; i++) {
                acc = acc * 31 + i;
                acc %= 94906249L;
            }
            print(acc);
        }
    }`)
	interp := vm.Run(vm.Config{}, bp)
	jitted := vm.Run(vm.Config{
		JIT:             New(Options{MaxTier: 2}),
		EntryThresholds: []int64{100, 1000},
		OSRThresholds:   []int64{100, 1000},
		RecordTrace:     true,
	}, bp)
	if !jitted.Output.Equivalent(interp.Output) {
		t.Fatalf("OSR run differs: %q vs %q (%s)", interp.Output.Lines, jitted.Output.Lines, jitted.Output.Detail)
	}
	if jitted.OSREntries == 0 {
		t.Error("expected an OSR entry for the hot loop")
	}
	if jitted.Trace.MaxTemp() == 0 {
		t.Error("trace should show compiled execution")
	}
}

func TestSpeculationAndDeopt(t *testing.T) {
	// The paper's Figure 2 mechanism in miniature: o() is pre-invoked
	// thousands of times with z == true, so the optimizing tier
	// speculates on the early return; the final call with z == false
	// must deoptimize, not misbehave.
	bp := compileSrc(t, `class T {
        boolean z = false;
        int l = 0;
        void g() { l += 2; }
        void o() { if (z) { return; } g(); }
        void p() {
            z = true;
            for (int u = 0; u < 9676; u++) { o(); }
            z = false;
            o();
            print(l);
        }
        void main() { p(); p(); }
    }`)
	interp := vm.Run(vm.Config{}, bp)
	jitted := vm.Run(vm.Config{
		JIT:             New(Options{MaxTier: 2}),
		EntryThresholds: []int64{500, 2000},
		OSRThresholds:   []int64{500, 2000},
		RecordTrace:     true,
		CollectStats:    true,
	}, bp)
	if !jitted.Output.Equivalent(interp.Output) {
		t.Fatalf("deopt run differs: interp=%v jit=%v (%s)", interp.Output.Lines, jitted.Output.Lines, jitted.Output.Detail)
	}
	if jitted.Deopts == 0 {
		t.Error("expected at least one deoptimization from the violated speculation")
	}
	// Every guard deopts under one reason template, so the metrics'
	// deopts_by_reason keeps a single key.
	if r := jitted.Stats.DeoptsByReason; len(r) != 1 || r["speculation failed"] != jitted.Deopts {
		t.Errorf("DeoptsByReason = %v, want all %d deopts under \"speculation failed\"", r, jitted.Deopts)
	}
	if jitted.Output.Lines[0] != "2" || jitted.Output.Lines[1] != "4" {
		t.Errorf("unexpected output %v", jitted.Output.Lines)
	}
}

func TestForcedPolicyChoicesChangeTrace(t *testing.T) {
	bp := compileSrc(t, `class T {
        int f(int x) { return x * 2 + 1; }
        void main() {
            int acc = 0;
            for (int i = 0; i < 10; i++) { acc = f(acc); }
            print(acc);
        }
    }`)
	comp := New(Options{MaxTier: 1})
	run := func(compile func(string, int64) bool) *vm.Result {
		return vm.Run(vm.Config{
			JIT:         comp,
			RecordTrace: true,
			Policy:      &vm.ForcedPolicy{Compile: compile},
		}, bp)
	}
	allInterp := run(func(string, int64) bool { return false })
	mixed := run(func(m string, call int64) bool { return m == "f" && call%2 == 0 })
	if !allInterp.Output.Equivalent(mixed.Output) {
		t.Fatal("different compilation choices must not change output")
	}
	if allInterp.Trace.Key() == mixed.Trace.Key() {
		t.Error("different compilation choices should yield different JIT traces")
	}
}

// TestBuggyTiersDetectable sanity-checks a few injected defects: each
// must leave interpretation untouched and corrupt only compiled runs.
func TestBuggyTiersDetectable(t *testing.T) {
	cases := []struct {
		bug string
		src string
	}{
		{"hs-gvn-across-store", `class T {
            int f = 1;
            int g(boolean c) {
                int a = f;         // load in the entry block
                if (c) { f = a + 5; }
                int b = f;         // load in the join block, after a store
                return a + b;
            }
            void main() { int s = 0; for (int i = 0; i < 10; i++) { f = i; s += g(i % 2 == 0); } print(s); }
        }`},
		{"oj-lvp-across-call", `class T {
            int f = 1;
            void bump() { f += 3; }
            int g() { int a = f; bump(); return a + f; }
            void main() { int s = 0; for (int i = 0; i < 10; i++) { s += g(); } print(s); }
        }`},
		{"oj-cg-l2i-skip", `class T {
            int g(long x, int s) { return (int)(x << s); }
            void main() {
                long v = 123456789L;
                int sh = 31;
                // Comparisons observe the full untruncated slot, so the
                // missing l2i shows up as the wrong sign here.
                print(g(v, sh) < 0);
            }
        }`},
		{"hs-cg-ushr-wide", `class T {
            long g(long x, int s) { return x >>> s; }
            void main() { print(g(-1L, 40)); }
        }`},
	}
	for _, tc := range cases {
		t.Run(tc.bug, func(t *testing.T) {
			bp := compileSrc(t, tc.src)
			good := vm.Run(vm.Config{}, bp)
			if good.Output.Term != vm.TermNormal {
				t.Fatalf("interp run failed: %v %s", good.Output.Term, good.Output.Detail)
			}
			buggy := vm.Run(vm.Config{
				JIT: New(Options{MaxTier: 2, Bugs: bugs.NewSet(tc.bug)}),
				Policy: &vm.ForcedPolicy{
					Tier:    2,
					Compile: func(string, int64) bool { return true },
				},
			}, bp)
			if buggy.Output.Equivalent(good.Output) {
				t.Errorf("bug %s not observable: output %v", tc.bug, buggy.Output.Lines)
			}
		})
	}
}

func TestCompilerCrashBugsCrashOnlyWhenCompiling(t *testing.T) {
	src := `class T {
        int go(int a, int b, int c, int d) {
            int acc = 0;
            for (int i = 0; i < 3; i++) {
                for (int j = 0; j < 3; j++) {
                    for (int k = 0; k < 3; k++) { acc += helper(a + i, b + j); }
                }
            }
            return acc + c + d;
        }
        int helper(int x, int y) { return x * y + 1; }
        void main() { print(go(1, 2, 3, 4)); }
    }`
	bp := compileSrc(t, src)
	good := vm.Run(vm.Config{}, bp)
	if good.Output.Term != vm.TermNormal {
		t.Fatalf("interp run failed: %v", good.Output.Term)
	}
	buggy := vm.Run(vm.Config{
		JIT: New(Options{MaxTier: 2, Bugs: bugs.NewSet("hs-loopopt-nest")}),
		Policy: &vm.ForcedPolicy{
			Tier:    2,
			Compile: func(string, int64) bool { return true },
		},
	}, bp)
	if buggy.Output.Term != vm.TermCrash {
		t.Fatalf("want compiler crash, got %v %q", buggy.Output.Term, buggy.Output.Detail)
	}
	if !strings.Contains(buggy.Output.Detail, "Ideal Loop Optimization") {
		t.Errorf("crash should name the component: %q", buggy.Output.Detail)
	}
}
