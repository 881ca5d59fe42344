package jit

import (
	"testing"

	"artemis/internal/vm"
)

// hotLoopSrc runs long enough to tier up under the tiny thresholds the
// tiered tests use, with array traffic so tier-2 passes have work.
const hotLoopSrc = `class T {
    long work(int[] a, int n) {
        long acc = 0;
        for (int i = 0; i < a.length; i++) { a[i] = i * 3; }
        for (int r = 0; r < n; r++) {
            for (int i = 0; i < a.length; i++) { acc += a[i] + r; }
        }
        return acc;
    }
    void main() {
        int[] a = new int[64];
        long t = 0;
        for (int k = 0; k < 300; k++) { t += work(a, 40); }
        print(t);
    }
}`

// TestExecStatsWithJIT drives a tiered run with stats on and checks
// the compilation machinery is fully accounted: the interp/compiled
// step split is exact, compilations land in per-tier buckets, and
// tier-2 pass counters surface through the compile result.
func TestExecStatsWithJIT(t *testing.T) {
	bp := compileSrc(t, hotLoopSrc)
	cfg := vm.Config{
		JIT:             New(Options{MaxTier: 2}),
		EntryThresholds: []int64{20, 100},
		OSRThresholds:   []int64{30, 150},
		CollectStats:    true,
		RecordTrace:     true,
	}
	res := vm.Run(cfg, bp)
	if res.Output.Term != vm.TermNormal {
		t.Fatalf("run ended %v (%s)", res.Output.Term, res.Output.Detail)
	}
	s := res.Stats
	if s == nil {
		t.Fatal("nil Stats on a CollectStats run")
	}
	if s.InterpSteps+s.CompiledSteps != res.Steps {
		t.Errorf("step split %d + %d != total %d", s.InterpSteps, s.CompiledSteps, res.Steps)
	}
	if s.CompiledSteps == 0 {
		t.Error("tiered hot loop charged no compiled steps")
	}
	var compilations int64
	for _, n := range s.CompilationsByTier {
		compilations += n
	}
	if compilations != res.Compilations {
		t.Errorf("CompilationsByTier %v sums to %d, VM counted %d", s.CompilationsByTier, compilations, res.Compilations)
	}
	if len(s.CompilationsByTier) != 2 || s.CompilationsByTier[1] == 0 {
		t.Errorf("CompilationsByTier = %v, want both tiers exercised", s.CompilationsByTier)
	}
	if s.OSRCompilations == 0 {
		t.Error("hot inner loops produced no OSR compilations")
	}
	if len(s.OptsByPass) == 0 {
		t.Error("tier-2 compilations reported no per-pass optimization counts")
	}
	// The counted loops over a[i] must feed bounds-check elimination.
	if s.OptsByPass["bce"] == 0 {
		t.Errorf("OptsByPass = %v, want bce > 0 for counted array loops", s.OptsByPass)
	}
	if s.CompileNanos <= 0 {
		t.Error("CompileNanos not accumulated")
	}
	if res.Trace.MaxTemp() != 2 {
		t.Errorf("trace MaxTemp = %d, want 2", res.Trace.MaxTemp())
	}
	if res.Trace.HottestMethod() == "" {
		t.Error("tiered run has no hottest method")
	}
}

// TestCompileStatsProvider: compiled code exposes its CompileStats via
// the optional interface, independent of any VM run.
func TestCompileStatsProvider(t *testing.T) {
	bp := compileSrc(t, hotLoopSrc)
	c := New(Options{MaxTier: 2})
	mi := -1
	for i, m := range bp.Methods {
		if m.Name == "work" {
			mi = i
		}
	}
	if mi < 0 {
		t.Fatal("method work not found")
	}
	code, cerr := c.Compile(vm.CompileRequest{Prog: bp, MethodIndex: mi, Tier: 2})
	if cerr != nil {
		t.Fatalf("compile failed: %v", cerr.Msg)
	}
	if code.Tier() != 2 {
		t.Errorf("Tier() = %d, want 2", code.Tier())
	}
	p, ok := code.(vm.CompileStatsProvider)
	if !ok {
		t.Fatal("compiled code does not implement CompileStatsProvider")
	}
	cs := p.CompileStats()
	if cs == nil || cs.Nanos <= 0 {
		t.Fatalf("CompileStats = %+v, want positive Nanos", cs)
	}
	if len(cs.OptsByPass) == 0 {
		t.Error("tier-2 compile reported no pass counts")
	}
}
