package bytecode_test

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"testing"
	"unsafe"

	"artemis/internal/bytecode"
	"artemis/internal/fuzz"
	"artemis/internal/jonm"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/sem"
)

// TestCompileDeltaMatchesColdCompile is the golden equivalence check
// for the incremental front-end: across many fuzzed seed x mutant
// pairs, CompileDelta (method-granular reuse of the seed's compiled
// program) must produce a program whose disassembly — instructions,
// switch tables, loop metadata, MaxStack, field table, method indices
// — is byte-identical to a cold full compile of the same mutant.
func TestCompileDeltaMatchesColdCompile(t *testing.T) {
	const wantPairs = 100
	pairs := 0
	for seedID := int64(1); pairs < wantPairs; seedID++ {
		seedProg := fuzz.Generate(fuzz.Options{Seed: seedID})
		seedInfo := sem.MustAnalyze(seedProg)
		seedBP := bytecode.MustCompile(seedInfo)
		seedText := ast.Print(seedProg)

		rng := rand.New(rand.NewSource(seedID * 7919))
		for iter := 0; iter < 4 && pairs < wantPairs; iter++ {
			mutant, rep, err := jonm.Mutate(seedProg, &jonm.Config{
				Rand: rng, SeedInfo: seedInfo,
			})
			if err != nil {
				t.Fatalf("seed %d iter %d: mutate: %v", seedID, iter, err)
			}

			inc := bytecode.MustCompileDelta(rep.Info, seedBP, rep.Mutated)
			// Cold path: re-analyze a deep clone so the shared seed
			// nodes are never re-annotated, then compile from scratch.
			cold := bytecode.MustCompile(sem.MustAnalyze(ast.CloneProgram(mutant)))

			if got, want := bytecode.Disasm(inc), bytecode.Disasm(cold); got != want {
				t.Fatalf("seed %d iter %d: incremental and cold compiles diverge\n--- incremental ---\n%s\n--- cold ---\n%s",
					seedID, iter, got, want)
			}
			pairs++
		}

		if ast.Print(seedProg) != seedText {
			t.Fatalf("seed %d: mutation modified the shared seed AST", seedID)
		}
	}
}

// disasmGoldenDigest is the sha256 of the compiler output over fuzz
// seeds 0-199 and 8 JoNM mutants of each. Any change to what the
// compiler emits for real programs — an opcode, an operand, a switch
// table, a loop record, MaxStack — changes it.
const disasmGoldenDigest = "6ac891e18729fd99ac56cdb503ddc921410e408f0dbeb331c5a4639fadc567d8"

// TestDisasmGolden pins the compiler's output: the disassembly of
// every cold-compiled seed and every delta-compiled mutant must hash to
// disasmGoldenDigest.
func TestDisasmGolden(t *testing.T) {
	if got := unsafe.Sizeof(bytecode.Instr{}); got != 16 {
		t.Errorf("sizeof(Instr) = %d, want the 16-byte word the interpreter indexes", got)
	}
	h := sha256.New()
	for seed := int64(0); seed < 200; seed++ {
		seedProg := fuzz.Generate(fuzz.Options{Seed: seed})
		seedInfo := sem.MustAnalyze(seedProg)
		seedBP := bytecode.MustCompile(seedInfo)
		io.WriteString(h, bytecode.Disasm(seedBP))

		rng := rand.New(rand.NewSource(seed * 7919))
		for i := 0; i < 8; i++ {
			_, rep, err := jonm.Mutate(seedProg, &jonm.Config{
				Rand: rng, SeedInfo: seedInfo, Min: 5000, Max: 10000, StepMax: 10,
			})
			if err != nil {
				t.Fatalf("seed %d mutant %d: %v", seed, i, err)
			}
			io.WriteString(h, bytecode.Disasm(bytecode.MustCompileDelta(rep.Info, seedBP, rep.Mutated)))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != disasmGoldenDigest {
		t.Errorf("compiler output digest = %s, want %s", got, disasmGoldenDigest)
	}
}
