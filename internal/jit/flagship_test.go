package jit

import (
	"fmt"
	"strings"
	"testing"

	"artemis/internal/bugs"
	"artemis/internal/vm"
)

// TestFlagshipGCMStoreSink reproduces the mechanism of JDK-8288975,
// the paper's flagship bug (Section 2.2): global code motion moves a
// field increment (load l; add; store l) from an outer loop into a
// directly nested inner loop "because the frequency estimates tie";
// the inner loop executes more iterations than the outer body, so the
// increment is applied too many times and the printed value changes.
func TestFlagshipGCMStoreSink(t *testing.T) {
	// Shaped after Figure 2: an outer loop whose body runs an inner
	// counting loop (the paper's `for (int w = -2967; w < 4342; w += 4);`)
	// and then increments the field T.l by 2.
	src := `class T {
        int l = 0;
        void g() {
            for (int i = 0; i < 10; i++) {
                for (int w = 0; w < 13; w += 4) { }
                l += 2;
            }
        }
        void main() { g(); print(l); }
    }`
	bp := compileSrc(t, src)

	interp := vm.Run(vm.Config{}, bp)
	if interp.Output.Term != vm.TermNormal || interp.Output.Lines[0] != "20" {
		t.Fatalf("interpreter: %v %v, want 20", interp.Output.Term, interp.Output.Lines)
	}

	force := func(set bugs.Set) *vm.Output {
		return vm.Run(vm.Config{
			JIT: New(Options{MaxTier: 2, Bugs: set}),
			Policy: &vm.ForcedPolicy{
				Tier:    2,
				Compile: func(string, int64) bool { return true },
			},
		}, bp).Output
	}

	correct := force(nil)
	if !correct.Equivalent(interp.Output) {
		t.Fatalf("correct tier-2 differs from interpreter: %v", correct.Lines)
	}

	buggy := force(bugs.NewSet("hs-gcm-store-sink"))
	if buggy.Term != vm.TermNormal {
		t.Fatalf("buggy run: %v (%s)", buggy.Term, buggy.Detail)
	}
	if buggy.Lines[0] == "20" {
		t.Fatal("hs-gcm-store-sink did not fire: output still 20")
	}
	// The increment now runs once per inner iteration (4 per outer
	// round), so l = 10 * 4 * 2 = 80.
	if buggy.Lines[0] != "80" {
		t.Errorf("buggy output %s, want 80 (increment multiplied by inner trip count)", buggy.Lines[0])
	}
}

// TestBCEOffByOneCorruptsHeap checks the OpenJ9-style GC-crash story:
// the buggy bounds-check elimination accepts "i <= a.length", the
// compiled store smashes the heap canary at i == length, and the
// crash surfaces later inside the garbage collector.
func TestBCEOffByOneCorruptsHeap(t *testing.T) {
	src := `class T {
        int sink = 0;
        void fill(int[] a) {
            for (int i = 0; i <= a.length; i++) { a[i] = i; }
        }
        void main() {
            int[] a = new int[8];
            fill(a);
            print(sink);
        }
    }`
	bp := compileSrc(t, src)

	// Correct behaviour (any tier): ArrayIndexOutOfBoundsException.
	interp := vm.Run(vm.Config{}, bp)
	if interp.Output.Term != vm.TermException || !strings.Contains(interp.Output.Detail, "ArrayIndexOutOfBounds") {
		t.Fatalf("interpreter: %v %q", interp.Output.Term, interp.Output.Detail)
	}

	buggy := vm.Run(vm.Config{
		JIT:        New(Options{MaxTier: 2, Bugs: bugs.NewSet("oj-bce-offbyone")}),
		GCInterval: 64,
		Policy: &vm.ForcedPolicy{
			Tier:    2,
			Compile: func(string, int64) bool { return true },
		},
	}, bp)
	if buggy.Output.Equivalent(interp.Output) {
		t.Fatal("oj-bce-offbyone did not change behaviour")
	}
	// The discrepancy must be observable; the strongest symptom is the
	// GC detecting the corrupted canary.
	if buggy.Output.Term == vm.TermCrash && !strings.Contains(buggy.Output.Detail, "heap corruption") {
		t.Errorf("crash but not in GC: %q", buggy.Output.Detail)
	}
	t.Logf("buggy behaviour: %v %q", buggy.Output.Term, buggy.Output.Detail)
}

// TestGCBarrierCorruption checks oj-gc-barrier: compiled stores to
// element 0 of aligned arrays silently smash the canary; the GC finds
// the corruption later and the VM dies inside the collector —
// Table 2's dominant OpenJ9 symptom.
func TestGCBarrierCorruption(t *testing.T) {
	src := `class T {
        long total = 0;
        void main() {
            int[] a = new int[8];
            for (int r = 0; r < 500; r++) {
                a[0] = r;
                long[] junk = new long[8];
                total += a[0] + (int)junk[0];
            }
            print(total);
        }
    }`
	bp := compileSrc(t, src)
	interp := vm.Run(vm.Config{GCInterval: 64}, bp)
	if interp.Output.Term != vm.TermNormal {
		t.Fatalf("interp: %v", interp.Output.Term)
	}
	buggy := vm.Run(vm.Config{
		JIT:        New(Options{MaxTier: 2, Bugs: bugs.NewSet("oj-gc-barrier")}),
		GCInterval: 64,
		Policy: &vm.ForcedPolicy{
			Tier:    2,
			Compile: func(string, int64) bool { return true },
		},
	}, bp)
	if buggy.Output.Term != vm.TermCrash || !strings.Contains(buggy.Output.Detail, "heap corruption") {
		t.Fatalf("want GC heap-corruption crash, got %v %q", buggy.Output.Term, buggy.Output.Detail)
	}
}

// TestDeoptStaleLocal checks oj-deopt-stale: guard frame states built
// from block-entry locals resume the interpreter with stale values
// after a trap.
func TestDeoptStaleLocal(t *testing.T) {
	src := `class T {
        boolean z = true;
        int probe(int x) {
            int acc = x;
            acc += 5;          // current value differs from block entry
            if (z) { return acc; }
            return acc * 100;
        }
        void main() {
            // Heat probe with z == true so the branch is speculated.
            int s = 0;
            for (int i = 0; i < 3000; i++) { s += probe(i); }
            z = false;         // violate the speculation -> deopt
            print(probe(7));
            print(s);
        }
    }`
	bp := compileSrc(t, src)
	run := func(set bugs.Set) *vm.Output {
		return vm.Run(vm.Config{
			JIT:             New(Options{MaxTier: 2, Bugs: set}),
			EntryThresholds: []int64{200, 800},
			OSRThresholds:   []int64{300, 1000},
		}, bp).Output
	}
	good := run(nil)
	interp := vm.Run(vm.Config{}, bp).Output
	if !good.Equivalent(interp) {
		t.Fatalf("correct deopt path broken: %v vs %v", good.Lines, interp.Lines)
	}
	buggy := run(bugs.NewSet("oj-deopt-stale"))
	if buggy.Equivalent(interp) {
		t.Skip("stale-local deopt bug not triggered by this shape (needs a frame-state-live local)")
	}
	t.Logf("stale deopt produced %v (correct %v)", buggy.Lines, interp.Lines)
}

// TestRegisterAliasing checks hs-ra-highpressure: under pressure a
// long-lived register and a mid-function temporary share one slot,
// clobbering values.
func TestRegisterAliasing(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("class T { long f(long pa, long pb) { ")
	for i := 0; i < 90; i++ {
		name := fmt.Sprintf("v%d", i)
		fmt.Fprintf(&sb, "long %s = pa * %d + pb; pa += %s; ", name, 1+i%9, name)
	}
	sb.WriteString("return pa; } void main() { print(f(1L, 2L)); } }")
	bp := compileSrc(t, sb.String())

	interp := vm.Run(vm.Config{}, bp).Output
	buggy := vm.Run(vm.Config{
		JIT: New(Options{MaxTier: 2, Bugs: bugs.NewSet("hs-ra-highpressure")}),
		Policy: &vm.ForcedPolicy{
			Tier:    2,
			Compile: func(string, int64) bool { return true },
		},
	}, bp).Output
	if buggy.Equivalent(interp) {
		t.Fatal("register aliasing did not change behaviour under high pressure")
	}
	t.Logf("aliasing produced %v/%v (correct %v)", buggy.Term, buggy.Lines, interp.Lines)
}
