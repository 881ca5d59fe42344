package reduce

import (
	"strings"
	"testing"

	"artemis/internal/bytecode"
	"artemis/internal/fuzz"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
	"artemis/internal/lang/sem"
	"artemis/internal/vm"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runOut(p *ast.Program) *vm.Output {
	info, err := sem.Analyze(p)
	if err != nil {
		panic(err)
	}
	bp, err := bytecode.Compile(info)
	if err != nil {
		panic(err)
	}
	return vm.Run(vm.Config{StepLimit: 10_000_000}, bp).Output
}

func TestReducePreservesPredicate(t *testing.T) {
	src := `class T {
        int a = 1;
        int b = 2;
        long unused1 = 99L;
        int noise(int x) { return x * 3 + 1; }
        void main() {
            int c = noise(4);
            int d = c + a;
            print(d);
            for (int i = 0; i < 3; i++) { c += i; }
            print(1 / (a - 1));
            print(b);
        }
    }`
	p := mustParse(t, src)
	keep := func(q *ast.Program) bool {
		out := runOut(q)
		return out.Term == vm.TermException && strings.Contains(out.Detail, "ArithmeticException")
	}
	if !keep(p) {
		t.Fatal("seed does not satisfy predicate")
	}
	small, _ := ReduceChecked(p, keep, Options{})
	if !keep(small) {
		t.Fatal("reduction lost the predicate")
	}
	if got, orig := ast.ProgramSize(small), ast.ProgramSize(p); got >= orig {
		t.Errorf("no shrinkage: %d -> %d", orig, got)
	} else {
		t.Logf("reduced %d -> %d statements:\n%s", orig, got, ast.Print(small))
	}
	// The prints before the division and the noise method should be
	// gone.
	if strings.Contains(ast.Print(small), "noise") {
		t.Log("warning: noise method survived (acceptable but unexpected)")
	}
}

func TestReduceDoesNotTouchInput(t *testing.T) {
	p := mustParse(t, `class T { void main() { print(5); print(6); } }`)
	before := ast.Print(p)
	keep := func(q *ast.Program) bool {
		out := runOut(q)
		return out.NLines >= 1 && out.Lines[0] == "5"
	}
	ReduceChecked(p, keep, Options{})
	if ast.Print(p) != before {
		t.Fatal("ReduceChecked mutated its input")
	}
}

func TestReduceFuzzedPrograms(t *testing.T) {
	// Reduce fuzzed programs under the predicate "still prints the
	// same first line" — exercising the reducer against rich shapes.
	for seed := int64(0); seed < 5; seed++ {
		p := fuzz.Generate(fuzz.Options{Seed: seed})
		ref := runOut(p)
		if ref.Term == vm.TermTimeout || ref.NLines == 0 {
			continue
		}
		first := ref.Lines[0]
		keep := func(q *ast.Program) bool {
			out := runOut(q)
			return out.NLines >= 1 && out.Lines[0] == first && out.Term != vm.TermTimeout
		}
		small, _ := ReduceChecked(p, keep, Options{MaxRounds: 4})
		if !keep(small) {
			t.Fatalf("seed %d: predicate lost", seed)
		}
		if ast.ProgramSize(small) > ast.ProgramSize(p) {
			t.Errorf("seed %d: grew during reduction", seed)
		}
	}
}
