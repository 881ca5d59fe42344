package vm

import "testing"

// TestSteadyStateRunAllocations pins the allocation cost of the
// steady-state run path: once a worker's Scratch has been sized by a
// first run, repeat runs of a program must allocate only a small,
// fixed number of objects (the VM struct, the Result/Output pair, and
// a handful of bookkeeping slices) — no per-step or per-frame
// allocation, and no allocation for a printed line past the first
// maxOutputLines, which only the output digest records. A regression
// here silently erodes campaign throughput long before any benchmark
// is rerun, so the bound fails loudly.
func TestSteadyStateRunAllocations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		src   string
		bound float64
	}{{
		// Measured ~8 allocs/run on the pure-interpreter path; 32
		// leaves room for small bookkeeping changes while still
		// catching any per-frame or per-step allocation (hundreds per
		// run).
		name: "hot loop",
		src: `class T {
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
        }`,
		bound: 32,
	}, {
		// 2,000 printed lines: each of the first maxOutputLines costs
		// its string (and the Lines slice grows), the other 1,744 cost
		// nothing.
		name:  "2000 prints",
		src:   `class T { void main() { for (int i = 0; i < 2000; i++) { print(i * 1000 + 17); } } }`,
		bound: 32 + maxOutputLines,
	}} {
		bp := compileSrc(t, tc.src)
		scratch := &Scratch{}
		cfg := Config{Scratch: scratch}
		if res := Run(cfg, bp); res.Output.Term != TermNormal {
			t.Fatalf("%s: warm-up run: term = %v (%s)", tc.name, res.Output.Term, res.Output.Detail)
		}
		avg := testing.AllocsPerRun(20, func() {
			Run(cfg, bp)
		})
		if avg > tc.bound {
			t.Errorf("%s: steady-state run allocates %.0f objects/run, want <= %.0f", tc.name, avg, tc.bound)
		}
	}
}
