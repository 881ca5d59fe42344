package jonm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"artemis/internal/bytecode"
	"artemis/internal/fuzz"
	"artemis/internal/jit"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
	"artemis/internal/lang/sem"
	"artemis/internal/vm"
)

// testSeed is an analyzed and compiled seed. Its mutants are compiled
// against it incrementally from Report.Info (CompileDelta), as a
// campaign compiles them: a full sem.Analyze of a copy-on-write mutant
// would re-annotate the method nodes it shares with the seed.
type testSeed struct {
	prog *ast.Program
	info *sem.Info
	bp   *bytecode.Program
}

func newTestSeed(t *testing.T, p *ast.Program) *testSeed {
	t.Helper()
	info, err := sem.Analyze(p)
	if err != nil {
		t.Fatalf("sem: %v\n%s", err, ast.Print(p))
	}
	bp, err := bytecode.Compile(info)
	if err != nil {
		t.Fatalf("bytecode: %v", err)
	}
	return &testSeed{prog: p, info: info, bp: bp}
}

// cfg returns a small-bounds config so tests run fast while still
// producing thousands of synthesized iterations.
func (s *testSeed) cfg(rngSeed int64) *Config {
	return &Config{Min: 500, Max: 1000, StepMax: 4, Rand: rand.New(rand.NewSource(rngSeed)), SeedInfo: s.info}
}

// compile compiles a mutant of s from its report.
func (s *testSeed) compile(t *testing.T, mutant *ast.Program, rep *Report) *bytecode.Program {
	t.Helper()
	bp, err := bytecode.CompileDelta(rep.Info, s.bp, rep.Mutated)
	if err != nil {
		t.Fatalf("bytecode: %v\n%s", err, ast.Print(mutant))
	}
	return bp
}

func TestMutateProducesValidDistinctPrograms(t *testing.T) {
	seed := newTestSeed(t, fuzz.Generate(fuzz.Options{Seed: 7}))
	seen := map[string]bool{}
	for i := int64(0); i < 20; i++ {
		mutant, rep, err := Mutate(seed.prog, seed.cfg(i))
		if err != nil {
			t.Fatalf("mutate %d: %v", i, err)
		}
		if len(rep.Applied) == 0 {
			t.Errorf("mutation %d applied nothing", i)
		}
		src := ast.Print(mutant)
		if src == ast.Print(seed.prog) {
			t.Errorf("mutant %d identical to seed", i)
		}
		seen[src] = true
		// Mutants must reparse (printer/parser round trip).
		if _, err := parser.Parse(src); err != nil {
			t.Fatalf("mutant %d does not reparse: %v", i, err)
		}
	}
	if len(seen) < 10 {
		t.Errorf("only %d distinct mutants out of 20", len(seen))
	}
}

// TestMutateDoesNotModifySeed: mutants share every unedited method
// with the seed, so neither mutation nor the mutant's analysis may
// write to the seed — its source or the annotations a compile reads.
func TestMutateDoesNotModifySeed(t *testing.T) {
	seed := newTestSeed(t, fuzz.Generate(fuzz.Options{Seed: 3}))
	before, code := ast.Print(seed.prog), bytecode.Disasm(seed.bp)
	for i := int64(0); i < 5; i++ {
		mutant, rep, err := Mutate(seed.prog, seed.cfg(i))
		if err != nil {
			t.Fatal(err)
		}
		seed.compile(t, mutant, rep)
	}
	if ast.Print(seed.prog) != before {
		t.Fatal("Mutate modified the seed program in place")
	}
	if bytecode.Disasm(bytecode.MustCompile(seed.info)) != code {
		t.Fatal("Mutate modified the seed's annotations")
	}
}

func TestMutateRequiresSeedInfo(t *testing.T) {
	seed := newTestSeed(t, fuzz.Generate(fuzz.Options{Seed: 3}))
	cfg := seed.cfg(1)
	cfg.SeedInfo = nil
	if _, _, err := Mutate(seed.prog, cfg); err == nil {
		t.Fatal("Mutate without SeedInfo returned no error")
	}
}

// TestNeutralityInterpreted is the core JoNM guarantee (Section 3.3):
// a mutant's observable output equals the seed's, checked on the
// interpreter where no JIT can interfere.
func TestNeutralityInterpreted(t *testing.T) {
	for s := int64(0); s < 25; s++ {
		seed := newTestSeed(t, fuzz.Generate(fuzz.Options{Seed: s}))
		ref := vm.Run(vm.Config{StepLimit: 10_000_000}, seed.bp).Output
		if ref.Term == vm.TermTimeout {
			continue
		}
		for i := int64(0); i < 4; i++ {
			mutant, rep, err := Mutate(seed.prog, seed.cfg(s*100+i))
			if err != nil {
				t.Fatalf("seed %d mutant %d: %v", s, i, err)
			}
			got := vm.Run(vm.Config{StepLimit: 500_000_000}, seed.compile(t, mutant, rep)).Output
			if got.Term == vm.TermTimeout {
				continue // mutant too hot for the budget; harness discards these
			}
			if !got.Equivalent(ref) {
				t.Errorf("seed %d mutant %d (%s) not neutral:\n seed:   %v %q %v\n mutant: %v %q %v",
					s, i, rep, ref.Term, ref.Detail, ref.Lines,
					got.Term, got.Detail, got.Lines)
			}
		}
	}
}

// TestNeutralityQuick drives the same property through testing/quick
// with arbitrary seeds.
func TestNeutralityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	check := func(fuzzSeed, mutSeed int64) bool {
		seed := newTestSeed(t, fuzz.Generate(fuzz.Options{Seed: fuzzSeed}))
		ref := vm.Run(vm.Config{StepLimit: 10_000_000}, seed.bp).Output
		if ref.Term == vm.TermTimeout {
			return true
		}
		mutant, rep, err := Mutate(seed.prog, seed.cfg(mutSeed))
		if err != nil {
			t.Logf("mutate error: %v", err)
			return false
		}
		got := vm.Run(vm.Config{StepLimit: 500_000_000}, seed.compile(t, mutant, rep)).Output
		if got.Term == vm.TermTimeout {
			return true
		}
		return got.Equivalent(ref)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMutantsHeatTheJIT: mutants must actually reach compilation —
// that is their entire purpose (the seed stays cold, Section 2.2).
func TestMutantsHeatTheJIT(t *testing.T) {
	seed := newTestSeed(t, fuzz.Generate(fuzz.Options{Seed: 11}))
	cfg := vm.Config{
		JIT:             jit.New(jit.Options{MaxTier: 2}),
		EntryThresholds: []int64{80, 250},
		OSRThresholds:   []int64{100, 350},
		RecordTrace:     true,
		StepLimit:       500_000_000,
	}
	seedRes := vm.Run(cfg, seed.bp)

	hot, distinctTraces := 0, 0
	for i := int64(0); i < 8; i++ {
		mutant, rep, err := Mutate(seed.prog, seed.cfg(i))
		if err != nil {
			t.Fatal(err)
		}
		cfg2 := cfg
		cfg2.JIT = jit.New(jit.Options{MaxTier: 2})
		res := vm.Run(cfg2, seed.compile(t, mutant, rep))
		if res.Compilations > 0 {
			hot++
		}
		// A mutation landing in never-executed code legitimately keeps
		// the seed's default JIT trace; most mutants must change it.
		if res.Output.Term != vm.TermTimeout && res.Trace.Key() != seedRes.Trace.Key() {
			distinctTraces++
		}
	}
	if hot < 6 {
		t.Errorf("only %d/8 mutants triggered JIT compilation", hot)
	}
	if distinctTraces < 5 {
		t.Errorf("only %d/8 mutants explored a different JIT trace", distinctTraces)
	}
}

// TestNeutralityUnderCorrectJIT: on a bug-free VM, seed (interpreted)
// and mutant (JIT-compiled) must agree — the exact oracle of
// Algorithm 1.
func TestNeutralityUnderCorrectJIT(t *testing.T) {
	for s := int64(30); s < 45; s++ {
		seed := newTestSeed(t, fuzz.Generate(fuzz.Options{Seed: s}))
		ref := vm.Run(vm.Config{StepLimit: 10_000_000}, seed.bp).Output
		if ref.Term == vm.TermTimeout {
			continue
		}
		for i := int64(0); i < 3; i++ {
			mutant, rep, err := Mutate(seed.prog, seed.cfg(s*10+i))
			if err != nil {
				t.Fatal(err)
			}
			got := vm.Run(vm.Config{
				JIT:             jit.New(jit.Options{MaxTier: 2}),
				EntryThresholds: []int64{80, 250},
				OSRThresholds:   []int64{100, 350},
				StepLimit:       500_000_000,
			}, seed.compile(t, mutant, rep)).Output
			if got.Term == vm.TermTimeout {
				continue
			}
			if !got.Equivalent(ref) {
				t.Errorf("seed %d mutant %d (%s): JIT-compiled mutant differs from seed:\n seed:   %v %q %v\n mutant: %v %q %v",
					s, i, rep, ref.Term, ref.Detail, ref.Lines, got.Term, got.Detail, got.Lines)
			}
		}
	}
}

func TestMutatorSpecificShapes(t *testing.T) {
	src := `class T {
        int acc = 0;
        int work(int x) { acc += x; return acc; }
        void helper() { acc -= 1; }
        void main() {
            for (int i = 0; i < 4; i++) { print(work(i)); }
            helper();
            print(acc);
        }
    }`
	seedProg, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	seed := newTestSeed(t, seedProg)
	ref := vm.Run(vm.Config{}, seed.bp).Output

	for _, mut := range []MutatorName{LI, SW, MI} {
		found := false
		for i := int64(0); i < 12 && !found; i++ {
			cfg := seed.cfg(i)
			cfg.Mutators = []MutatorName{mut}
			mutant, rep, err := Mutate(seed.prog, cfg)
			if err != nil {
				t.Fatalf("%s: %v", mut, err)
			}
			for _, a := range rep.Applied {
				if a.Mutator == mut {
					found = true
				}
			}
			got := vm.Run(vm.Config{StepLimit: 500_000_000}, seed.compile(t, mutant, rep)).Output
			if got.Term != vm.TermTimeout && !got.Equivalent(ref) {
				t.Errorf("%s mutant not neutral (%s):\nseed %v mutant %v\n%s",
					mut, rep, ref.Lines, got.Lines, ast.Print(mutant))
			}
		}
		if !found {
			t.Errorf("mutator %s never applied", mut)
		}
	}
}
