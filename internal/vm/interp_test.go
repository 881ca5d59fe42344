package vm

import (
	"strings"
	"testing"

	"artemis/internal/bytecode"
	"artemis/internal/lang/parser"
	"artemis/internal/lang/sem"
)

// compileSrc parses, checks, and compiles MJ source.
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

// runInterp runs src on a pure interpreter and returns the output.
func runInterp(t *testing.T, src string) *Output {
	t.Helper()
	bp := compileSrc(t, src)
	res := Run(Config{}, bp)
	return res.Output
}

// expectLines asserts a normal run printing exactly the given lines.
func expectLines(t *testing.T, src string, want ...string) {
	t.Helper()
	out := runInterp(t, src)
	if out.Term != TermNormal {
		t.Fatalf("term = %v (%s), want normal", out.Term, out.Detail)
	}
	if out.NLines != len(want) {
		t.Fatalf("printed %d lines %v, want %d", out.NLines, out.Lines, len(want))
	}
	for i, w := range want {
		if out.Lines[i] != w {
			t.Errorf("line %d = %q, want %q", i, out.Lines[i], w)
		}
	}
}

func TestArithmetic(t *testing.T) {
	expectLines(t, `class T { void main() {
        print(1 + 2 * 3);
        print(10 / 3);
        print(-10 / 3);
        print(10 % 3);
        print(-10 % 3);
        print(7 & 3);
        print(7 | 8);
        print(7 ^ 5);
        print(1 << 5);
        print(-16 >> 2);
        print(-16 >>> 28);
        print(~5);
        print(-(3));
    } }`,
		"7", "3", "-3", "1", "-1", "3", "15", "2", "32", "-4", "15", "-6", "-3")
}

func TestInt32Wrapping(t *testing.T) {
	expectLines(t, `class T { void main() {
        int max = 2147483647;
        print(max + 1);
        print(max * 2);
        int min = -2147483647 - 1;
        print(min - 1);
        print(min / -1);
        print(min % -1);
        print(min * -1);
    } }`,
		"-2147483648", "-2", "2147483647", "-2147483648", "0", "-2147483648")
}

func TestLongArithmetic(t *testing.T) {
	expectLines(t, `class T { void main() {
        long max = 9223372036854775807L;
        print(max + 1L);
        long x = 1000000000L * 1000000000L;
        print(x);
        print(x >> 10);
        print(x >>> 10);
        long neg = -1L;
        print(neg >>> 1);
    } }`,
		"-9223372036854775808", "1000000000000000000",
		"976562500000000", "976562500000000", "9223372036854775807")
}

func TestShiftCountMasking(t *testing.T) {
	expectLines(t, `class T { void main() {
        int one = 1;
        print(one << 32);
        print(one << 33);
        long l = 1L;
        print(l << 64);
        print(l << 65);
    } }`,
		"1", "2", "1", "2")
}

func TestPromotionAndCast(t *testing.T) {
	expectLines(t, `class T { void main() {
        int i = -1;
        long l = 4294967296L;
        print(i + l);
        print((int)l);
        print((int)(l + 5L));
        print((long)i);
        long big = 2147483648L;
        print((int)big);
    } }`,
		"4294967295", "0", "5", "-1", "-2147483648")
}

func TestBooleansAndShortCircuit(t *testing.T) {
	expectLines(t, `class T {
        int calls = 0;
        boolean side() { calls++; return true; }
        void main() {
            boolean f = false;
            print(f && side());
            print(calls);
            print(true || side());
            print(calls);
            print(f | side());
            print(calls);
            print(!f);
            print(f ^ true);
        }
    }`,
		"false", "0", "true", "0", "true", "1", "true", "true")
}

func TestControlFlow(t *testing.T) {
	expectLines(t, `class T { void main() {
        int sum = 0;
        for (int i = 0; i < 10; i++) {
            if (i % 2 == 0) { continue; }
            if (i == 9) { break; }
            sum += i;
        }
        print(sum);
        int n = 0;
        while (n < 5) { n += 2; }
        print(n);
        int j = 3;
        print(j > 2 ? 100 : 200);
    } }`,
		"16", "6", "100")
}

func TestSwitchFallthrough(t *testing.T) {
	expectLines(t, `class T {
        int f(int x) {
            int r = 0;
            switch (x) {
            case 1:
                r += 1;
            case 2:
                r += 2;
                break;
            case 3:
                r += 3;
                break;
            default:
                r += 100;
            }
            return r;
        }
        void main() {
            print(f(1));
            print(f(2));
            print(f(3));
            print(f(4));
        }
    }`,
		"3", "2", "3", "100")
}

func TestArrays(t *testing.T) {
	expectLines(t, `class T { void main() {
        int[] a = new int[5];
        for (int i = 0; i < a.length; i++) { a[i] = i * i; }
        print(a[4]);
        print(a.length);
        int[] b = new int[]{10, 20, 30};
        b[1] += 5;
        print(b[1]);
        long[] c = new long[]{1L << 40};
        print(c[0]);
        boolean[] d = new boolean[2];
        d[0] = true;
        print(d[0]);
        print(d[1]);
    } }`,
		"16", "5", "25", "1099511627776", "true", "false")
}

func TestFieldsAndClinit(t *testing.T) {
	expectLines(t, `class T {
        int a = 5;
        long b = a + 10;
        int[] arr = new int[]{1, 2, 3};
        int noinit;
        int[] defarr;
        void main() {
            print(a);
            print(b);
            print(arr[2]);
            print(noinit);
            print(defarr.length);
            a = 42;
            print(a);
        }
    }`,
		"5", "15", "3", "0", "0", "42")
}

func TestMethodCallsAndRecursion(t *testing.T) {
	expectLines(t, `class T {
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        long mix(int a, long b, boolean c) {
            if (c) { return a + b; }
            return a - b;
        }
        void main() {
            print(fib(15));
            print(mix(3, 4L, true));
            print(mix(3, 4L, false));
        }
    }`,
		"610", "7", "-1")
}

func TestCompoundAssignNarrowing(t *testing.T) {
	expectLines(t, `class T { void main() {
        int i = 2147483647;
        i += 1L;
        print(i);
        int j = 10;
        long big = 4294967296L;
        j += big;
        print(j);
        int k = -8;
        k >>>= 1;
        print(k);
        long l = 7L;
        l <<= 62;
        print(l);
    } }`,
		"-2147483648", "10", "2147483644", "-4611686018427387904")
}

func TestExceptions(t *testing.T) {
	cases := []struct {
		name, src, wantDetail string
	}{
		{"div by zero", `class T { int z = 0; void main() { print(1 / z); } }`, "ArithmeticException"},
		{"mod by zero", `class T { long z = 0L; void main() { print(1L % z); } }`, "ArithmeticException"},
		{"index oob", `class T { void main() { int[] a = new int[3]; print(a[3]); } }`, "ArrayIndexOutOfBoundsException"},
		{"index negative", `class T { void main() { int[] a = new int[3]; int i = -1; a[i] = 5; } }`, "ArrayIndexOutOfBoundsException"},
		{"negative size", `class T { void main() { int n = -2; int[] a = new int[n]; print(a.length); } }`, "NegativeArraySizeException"},
		{"stack overflow", `class T { int f(int n) { return f(n + 1); } void main() { print(f(0)); } }`, "StackOverflowError"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := runInterp(t, tc.src)
			if out.Term != TermException {
				t.Fatalf("term = %v (%s), want exception", out.Term, out.Detail)
			}
			if !strings.Contains(out.Detail, tc.wantDetail) {
				t.Errorf("detail %q, want containing %q", out.Detail, tc.wantDetail)
			}
		})
	}
}

func TestPrintsBeforeException(t *testing.T) {
	out := runInterp(t, `class T { int z = 0; void main() { print(1); print(2); print(3 / z); } }`)
	if out.Term != TermException || out.NLines != 2 {
		t.Fatalf("term=%v lines=%d, want exception after 2 lines", out.Term, out.NLines)
	}
}

func TestStepLimitTimeout(t *testing.T) {
	bp := compileSrc(t, `class T { void main() { int x = 0; while (true) { x++; } } }`)
	res := Run(Config{StepLimit: 10000}, bp)
	if res.Output.Term != TermTimeout {
		t.Fatalf("term = %v, want timeout", res.Output.Term)
	}
}

func TestGCReclaimsGarbage(t *testing.T) {
	bp := compileSrc(t, `class T {
        long f() { long[] a = new long[100]; a[99] = 7; return a[99]; }
        void main() {
            long sum = 0;
            for (int i = 0; i < 1000; i++) { sum += f(); }
            print(sum);
        }
    }`)
	res := Run(Config{HeapWords: 4096, GCInterval: 16}, bp)
	if res.Output.Term != TermNormal {
		t.Fatalf("term = %v (%s)", res.Output.Term, res.Output.Detail)
	}
	if res.Output.Lines[0] != "7000" {
		t.Errorf("output %v", res.Output.Lines)
	}
	if res.GCRuns == 0 {
		t.Error("expected at least one GC run")
	}
}

func TestGCKeepsLiveArrays(t *testing.T) {
	bp := compileSrc(t, `class T {
        int[] keep = new int[]{1, 2, 3};
        void main() {
            int[] local = new int[]{9, 8, 7};
            for (int i = 0; i < 500; i++) {
                int[] junk = new int[50];
                junk[0] = i;
            }
            print(keep[2] + local[0]);
        }
    }`)
	res := Run(Config{HeapWords: 8192, GCInterval: 8}, bp)
	if res.Output.Term != TermNormal || res.Output.Lines[0] != "12" {
		t.Fatalf("term=%v out=%v (%s)", res.Output.Term, res.Output.Lines, res.Output.Detail)
	}
	if res.GCRuns == 0 {
		t.Error("expected GC activity")
	}
}

func TestOutOfMemory(t *testing.T) {
	bp := compileSrc(t, `class T {
        void main() {
            long[] a = new long[1000];   // fits
            long[] b = new long[10000];  // cannot fit even after GC
            print(a[0] + b[0]);
        }
    }`)
	res := Run(Config{HeapWords: 5000}, bp)
	if res.Output.Term != TermException || !strings.Contains(res.Output.Detail, "OutOfMemoryError") {
		t.Fatalf("term=%v detail=%q, want OOM", res.Output.Term, res.Output.Detail)
	}
}

func TestOutputHashCoversAllLines(t *testing.T) {
	bp := compileSrc(t, `class T { void main() { for (int i = 0; i < 300; i++) { print(i); } } }`)
	a := Run(Config{}, bp).Output
	b := Run(Config{}, bp).Output
	if !a.Equivalent(b) {
		t.Error("identical runs should be equivalent")
	}
	if len(a.Lines) != maxOutputLines || a.NLines != 300 {
		t.Fatalf("kept %d of %d lines, want %d of 300", len(a.Lines), a.NLines, maxOutputLines)
	}
	bp2 := compileSrc(t, `class T { void main() { for (int i = 0; i < 300; i++) { print(i == 280 ? -1 : i); } } }`)
	c := Run(Config{}, bp2).Output
	if a.Equivalent(c) {
		t.Error("runs differing past the retained prefix must not be equivalent")
	}
}

func TestDeterminism(t *testing.T) {
	src := `class T {
        int[] data = new int[]{5, 3, 8, 1, 9, 2, 7};
        void sort() {
            for (int i = 0; i < data.length; i++) {
                for (int j = i + 1; j < data.length; j++) {
                    if (data[j] < data[i]) {
                        int tmp = data[i]; data[i] = data[j]; data[j] = tmp;
                    }
                }
            }
        }
        void main() {
            sort();
            for (int i = 0; i < data.length; i++) { print(data[i]); }
        }
    }`
	a := runInterp(t, src)
	b := runInterp(t, src)
	if a.Key() != b.Key() {
		t.Errorf("non-deterministic interpreter: %q vs %q", a.Key(), b.Key())
	}
	if a.Lines[0] != "1" || a.Lines[6] != "9" {
		t.Errorf("sort output wrong: %v", a.Lines)
	}
}

func TestTemperatureMath(t *testing.T) {
	thr := []int64{100, 1000}
	cases := []struct {
		v    int64
		want int
	}{{0, 0}, {99, 0}, {100, 1}, {999, 1}, {1000, 2}, {1 << 40, 2}}
	for _, tc := range cases {
		if got := temperatureOf(tc.v, thr); got != tc.want {
			t.Errorf("temperatureOf(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	c := Counters{Invocations: 50, Backedge: []int64{200, 30}}
	if got := c.Temperature(thr); got != 1 {
		t.Errorf("method temperature = %d, want 1 (hottest counter rules)", got)
	}
}

func TestBranchProfileCollected(t *testing.T) {
	bp := compileSrc(t, `class T {
        int f(int x) { if (x > 0) { return 1; } return 0; }
        void main() {
            int s = 0;
            for (int i = 0; i < 20; i++) { s += f(i); }
            print(s);
        }
    }`)
	v := New(Config{}, bp)
	v.Run()
	st := v.MethodStateByName("f")
	if st.Counters.Invocations != 20 {
		t.Errorf("f invocations = %d", st.Counters.Invocations)
	}
	total := int64(0)
	for _, b := range st.Profile.Branches {
		total += b.Taken + b.NotTaken
	}
	if total != 20 {
		t.Errorf("branch profile total = %d, want 20", total)
	}
	mainSt := v.MethodStateByName("main")
	if mainSt.Counters.Backedge[0] != 20 {
		t.Errorf("main loop backedges = %d, want 20", mainSt.Counters.Backedge[0])
	}
}
