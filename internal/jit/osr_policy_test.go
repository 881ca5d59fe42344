package jit

import (
	"fmt"
	"testing"

	"artemis/internal/vm"
)

// osrReusePolicy is a minimal custom policy exercising the
// ActUseCompiled back-edge contract: the first hot back edge of a loop
// requests OSR compilation; every later one asks the VM to enter the
// already-cached OSR entry without a compile request.
type osrReusePolicy struct {
	threshold int64
	compiled  map[string]bool // "method/loopID" -> OSR requested
}

func (p *osrReusePolicy) OnEntry(st *vm.MethodState) vm.Decision {
	return vm.Decision{Action: vm.ActInterpret}
}

func (p *osrReusePolicy) OnBackEdge(st *vm.MethodState, loopID int) vm.Decision {
	if st.Counters.Backedge[loopID] < p.threshold {
		return vm.Decision{Action: vm.ActInterpret}
	}
	key := fmt.Sprintf("%s/%d", st.Name, loopID)
	if p.compiled[key] {
		return vm.Decision{Action: vm.ActUseCompiled, Tier: 2}
	}
	p.compiled[key] = true
	return vm.Decision{Action: vm.ActCompile, Tier: 2}
}

// TestOSRUseCompiledEntersCachedCode pins the back-edge dispatch
// contract: a policy answering ActUseCompiled must enter the cached
// OSR entry. Before the fix the interpreter only acted on ActCompile
// and silently kept interpreting, so a custom policy could never reuse
// an OSR entry it had already paid to compile — here that showed as a
// single OSR entry (and the second loop execution interpreted) instead
// of two.
func TestOSRUseCompiledEntersCachedCode(t *testing.T) {
	bp := compileSrc(t, `class T {
        int acc = 0;
        void g() { for (int i = 0; i < 200; i++) { acc += i; } }
        void main() { g(); g(); print(acc); }
    }`)
	// A tier-1 compiler never speculates, so the loop-exit branch stays
	// unguarded: a profile-trained exit guard would fail at i==200,
	// deopt, and (correctly) invalidate the cached OSR entry — which
	// would mask the dispatch behaviour this test pins.
	res := vm.Run(vm.Config{
		JIT:    New(Options{MaxTier: 1}),
		Policy: &osrReusePolicy{threshold: 100, compiled: map[string]bool{}},
	}, bp)
	if res.Output.Term != vm.TermNormal {
		t.Fatalf("run: %v %q", res.Output.Term, res.Output.Detail)
	}
	interp := vm.Run(vm.Config{}, bp)
	if !res.Output.Equivalent(interp.Output) {
		t.Fatalf("OSR run diverged from interpreter: %v vs %v", res.Output.Lines, interp.Output.Lines)
	}
	// One OSR compilation (first call), two OSR entries (the second
	// call re-enters the cached code via ActUseCompiled).
	if res.Compilations != 1 {
		t.Errorf("compilations = %d, want 1 (second call must reuse, not recompile)", res.Compilations)
	}
	if res.OSREntries != 2 {
		t.Errorf("OSR entries = %d, want 2 (ActUseCompiled must enter the cached entry)", res.OSREntries)
	}
}

// TestCounterPolicyNoRedundantOSRRecompiles pins CounterPolicy's
// back-edge behaviour and the exact compilation counts of a two-call
// hot-loop shape: the cached-OSR branch answers ActUseCompiled (reuse)
// rather than re-requesting compilation on every hot back edge.
func TestCounterPolicyNoRedundantOSRRecompiles(t *testing.T) {
	bp := compileSrc(t, `class T {
        int acc = 0;
        void g() { for (int i = 0; i < 800; i++) { acc += i; } }
        void main() { g(); g(); print(acc); }
    }`)
	res := vm.Run(vm.Config{
		JIT:             New(Options{MaxTier: 1}),
		EntryThresholds: []int64{350, 1400},
		OSRThresholds:   []int64{450, 1800},
		CollectStats:    true,
	}, bp)
	if res.Output.Term != vm.TermNormal {
		t.Fatalf("run: %v %q", res.Output.Term, res.Output.Detail)
	}
	interp := vm.Run(vm.Config{}, bp)
	if !res.Output.Equivalent(interp.Output) {
		t.Fatalf("diverged from interpreter: %v vs %v", res.Output.Lines, interp.Output.Lines)
	}
	st := res.Stats
	// Call one interprets to back edge 450, OSR-compiles at tier 1 and
	// finishes compiled. Call two interprets to its first back edge,
	// finds the cached tier-1 entry, and re-enters it via
	// ActUseCompiled — one compilation total, two OSR entries. Before
	// the CounterPolicy fix the cached branch answered ActCompile, so a
	// dispatch change here means redundant compile requests are back.
	if st.OSRCompilations != 1 {
		t.Errorf("OSR compilations = %d, want 1 (cached OSR entry recompiled)", st.OSRCompilations)
	}
	if res.OSREntries != 2 {
		t.Errorf("OSR entries = %d, want 2 (cached entry not reused on second call)", res.OSREntries)
	}
	// Pin the tier counts exactly so any policy/dispatch change that
	// alters compilation behaviour is caught, not just gross breakage.
	want := []int64{1}
	if len(st.CompilationsByTier) != len(want) {
		t.Fatalf("CompilationsByTier = %v, want %v", st.CompilationsByTier, want)
	}
	for i := range want {
		if st.CompilationsByTier[i] != want[i] {
			t.Fatalf("CompilationsByTier = %v, want %v", st.CompilationsByTier, want)
		}
	}
}
