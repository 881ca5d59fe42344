package vm

import (
	"testing"
)

// TestTraceMaxTempBeyondCap is the regression test for the trace
// truncation bug: MaxTemp used to scan only the retained Vectors
// prefix, so a trace whose hottest vector arrived after maxKeep
// reported a tiered run as interpreter-only. It is now tracked
// incrementally in add and must cover the whole run.
func TestTraceMaxTempBeyondCap(t *testing.T) {
	tr := newJITTrace(2)
	tr.add(TempVector{Method: "cold", CallIndex: 1, Temps: []int{0}})
	tr.add(TempVector{Method: "cold", CallIndex: 2, Temps: []int{0}})
	// Retention cap reached; the hot vectors below are dropped from
	// Vectors but must still drive MaxTemp/HottestMethod.
	tr.add(TempVector{Method: "warm", CallIndex: 3, Temps: []int{0, 1}})
	tr.add(TempVector{Method: "hot", CallIndex: 4, Temps: []int{1, 2}})
	if len(tr.Vectors) != 2 {
		t.Fatalf("retained %d vectors, want 2 (cap)", len(tr.Vectors))
	}
	if got := tr.MaxTemp(); got != 2 {
		t.Errorf("MaxTemp = %d, want 2 (hottest vector is beyond the cap)", got)
	}
	if got := tr.HottestMethod(); got != "hot" {
		t.Errorf("HottestMethod = %q, want \"hot\"", got)
	}

	// Interpreter-only trace: MaxTemp 0, no hottest method.
	cold := newJITTrace(2)
	cold.add(TempVector{Method: "f", CallIndex: 1, Temps: []int{0}})
	if cold.MaxTemp() != 0 || cold.HottestMethod() != "" {
		t.Errorf("interpreter-only trace: MaxTemp=%d HottestMethod=%q, want 0 and \"\"",
			cold.MaxTemp(), cold.HottestMethod())
	}
}

func TestExecStatsMerge(t *testing.T) {
	a := &ExecStats{
		InterpSteps:        10,
		CompiledSteps:      5,
		CompilationsByTier: []int64{2},
		PeakHeapWords:      100,
		DeoptsByReason:     map[string]int64{"speculation failed": 1},
	}
	b := &ExecStats{
		InterpSteps:        1,
		CompiledSteps:      2,
		CompilationsByTier: []int64{1, 3},
		OSRCompilations:    1,
		PeakHeapWords:      40,
		Deopts:             2,
		UncommonTraps:      2,
		DeoptsByReason:     map[string]int64{"speculation failed": 2},
		OptsByPass:         map[string]int64{"gvn": 4},
		GCCycles:           7,
	}
	a.Merge(b)
	a.Merge(nil) // must be a no-op
	if a.InterpSteps != 11 || a.CompiledSteps != 7 {
		t.Errorf("step sums wrong: %+v", a)
	}
	if len(a.CompilationsByTier) != 2 || a.CompilationsByTier[0] != 3 || a.CompilationsByTier[1] != 3 {
		t.Errorf("CompilationsByTier = %v, want [3 3]", a.CompilationsByTier)
	}
	if a.PeakHeapWords != 100 {
		t.Errorf("PeakHeapWords = %d, want max(100,40)=100", a.PeakHeapWords)
	}
	if a.DeoptsByReason["speculation failed"] != 3 {
		t.Errorf("DeoptsByReason = %v", a.DeoptsByReason)
	}
	if a.OptsByPass["gvn"] != 4 || a.GCCycles != 7 || a.OSRCompilations != 1 {
		t.Errorf("merged stats wrong: %+v", a)
	}
}

// TestInterpExecStats: an interpreter-only run with CollectStats set
// charges every step to InterpSteps, none to CompiledSteps, and tracks
// heap behaviour; with CollectStats unset the stats pointer stays nil
// (the near-zero-cost disabled path).
func TestInterpExecStats(t *testing.T) {
	src := `class T { void main() {
        long a = 0;
        for (int i = 0; i < 2000; i++) {
            int[] junk = new int[16];
            junk[0] = i;
            a += junk[0];
        }
        print(a);
    } }`
	bp := compileSrc(t, src)

	res := Run(Config{CollectStats: true, HeapWords: 1 << 12}, bp)
	if res.Stats == nil {
		t.Fatal("CollectStats run returned nil Stats")
	}
	s := res.Stats
	if s.InterpSteps != res.Steps || s.CompiledSteps != 0 {
		t.Errorf("interp-only split: InterpSteps=%d CompiledSteps=%d, run Steps=%d",
			s.InterpSteps, s.CompiledSteps, res.Steps)
	}
	if len(s.CompilationsByTier) != 0 {
		t.Errorf("no JIT configured but CompilationsByTier=%v", s.CompilationsByTier)
	}
	if s.PeakHeapWords == 0 {
		t.Error("allocating run reported PeakHeapWords=0")
	}
	if s.GCCycles == 0 {
		t.Error("small-heap allocating loop reported zero GC cycles")
	}

	off := Run(Config{HeapWords: 1 << 12}, bp)
	if off.Stats != nil {
		t.Error("Stats must be nil when CollectStats is off")
	}
	if off.Output.Term != res.Output.Term || off.Output.Key() != res.Output.Key() {
		t.Error("CollectStats changed observable behaviour")
	}
}
