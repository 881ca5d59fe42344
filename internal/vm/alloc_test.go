package vm

import "testing"

// TestSteadyStateRunAllocations pins the allocation cost of the
// steady-state run path: once a worker's Scratch has been sized by a
// first run, repeat runs of a program must allocate only a small,
// fixed number of objects (the VM struct, the Result/Output pair, and
// a handful of bookkeeping slices) — no per-step or per-frame
// allocation. A regression here silently erodes campaign throughput
// long before any benchmark is rerun, so the bound fails loudly.
func TestSteadyStateRunAllocations(t *testing.T) {
	bp := compileSrc(t, `class T {
        int f;
        int work(int n) {
            int a = 0;
            for (int i = 0; i < n; i++) { a += i ^ (a >> 3); f = a; }
            return a;
        }
        void main() {
            int s = 0;
            for (int i = 0; i < 40; i++) { s += work(500); }
            print(s);
        }
    }`)

	scratch := &Scratch{}
	cfg := Config{Scratch: scratch}
	if res := Run(cfg, bp); res.Output.Term != TermNormal {
		t.Fatalf("warm-up run: term = %v (%s)", res.Output.Term, res.Output.Detail)
	}

	avg := testing.AllocsPerRun(20, func() {
		Run(cfg, bp)
	})
	// Measured ~8 allocs/run on the pure-interpreter path; 32 leaves
	// room for small bookkeeping changes while still catching any
	// per-frame or per-step allocation (hundreds per run).
	if avg > 32 {
		t.Errorf("steady-state run allocates %.0f objects/run, want <= 32", avg)
	}
}
