// Quickstart: the smallest end-to-end use of the library.
//
//  1. Parse an MJ program (the Java-like test language).
//  2. Run it on the tiered VM and look at its JIT trace.
//  3. Apply one JoNM mutation and verify neutrality: same output,
//     different JIT trace — one step of compilation space exploration.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"artemis/internal/bytecode"
	"artemis/internal/jit"
	"artemis/internal/jonm"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
	"artemis/internal/lang/sem"
	"artemis/internal/vm"
)

const program = `class Demo {
    int total = 0;
    int step(int x) { return x * 3 + 1; }
    void main() {
        for (int i = 0; i < 10; i++) {
            total += step(i);
        }
        print(total);
    }
}
`

func main() {
	// 1. Front end: parse, type-check, compile to bytecode.
	prog, err := parser.Parse(program)
	if err != nil {
		log.Fatal(err)
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		log.Fatal(err)
	}
	bp, err := bytecode.Compile(info)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Run on a tiered VM (interpreter + two JIT tiers) with tiny
	// thresholds so this toy program becomes hot, and record the JIT
	// trace (the temperature vectors of Definition 3.2).
	cfg := vm.Config{
		JIT:             jit.New(jit.Options{MaxTier: 2}),
		EntryThresholds: []int64{5, 20},
		OSRThresholds:   []int64{5, 20},
		RecordTrace:     true,
		CollectStats:    true,
	}
	seedRes := vm.Run(cfg, bp)
	fmt.Println("seed output:   ", seedRes.Output.Lines)
	fmt.Println("seed JIT trace:", seedRes.Trace)

	// Execution metrics (Result.Stats): how much of the compilation
	// machinery the run exercised.
	st := seedRes.Stats
	fmt.Printf("seed metrics:   %d interpreted + %d compiled steps, "+
		"compilations by tier %v (%d OSR), %d deopts\n",
		st.InterpSteps, st.CompiledSteps, st.CompilationsByTier,
		st.OSRCompilations, st.Deopts)

	// 3. One JoNM mutation: same observable behaviour, different
	// compilation choices. Mutation starts from the seed's analysis, and
	// the mutant is compiled reusing every method it left untouched.
	mutant, report, err := jonm.Mutate(prog, &jonm.Config{
		Min: 50, Max: 100, StepMax: 4,
		Rand:     rand.New(rand.NewSource(7)),
		SeedInfo: info,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\napplied mutations:", report)

	mbp := bytecode.MustCompileDelta(report.Info, bp, report.Mutated)
	cfg.JIT = jit.New(jit.Options{MaxTier: 2}) // fresh compiler caches
	mutRes := vm.Run(cfg, mbp)
	fmt.Println("mutant output: ", mutRes.Output.Lines)
	fmt.Printf("mutant JIT trace: %d calls, max temperature t%d\n",
		mutRes.Trace.NTotal, mutRes.Trace.MaxTemp())

	// The compilation-space oracle: equivalent outputs, or the JIT is
	// broken.
	if mutRes.Output.Equivalent(seedRes.Output) {
		fmt.Println("\n✓ outputs agree across compilation choices (no JIT bug observed)")
	} else {
		fmt.Println("\n✗ DISCREPANCY — JIT-compiler bug!")
	}
	fmt.Println("\nmutant source:")
	fmt.Print(ast.Print(mutant))
}
