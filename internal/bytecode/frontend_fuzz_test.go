package bytecode_test

import (
	"testing"

	"artemis/internal/bytecode"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
	"artemis/internal/lang/sem"
)

// FuzzFrontEnd checks the front end on arbitrary source text: parsing
// never panics; whatever parses prints to source that reparses and
// prints identically; whatever sem accepts compiles and verifies; and
// the incremental compiler, given the program's own cold compile as the
// base and every method marked changed, emits the same program.
func FuzzFrontEnd(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse(src)
		if err != nil {
			return
		}
		printed := ast.Print(prog)
		again, err := parser.Parse(printed)
		if err != nil {
			t.Fatalf("printed program does not reparse: %v\n%s", err, printed)
		}
		if reprinted := ast.Print(again); reprinted != printed {
			t.Fatalf("print is not a fixed point:\n%s\nreprinted as\n%s", printed, reprinted)
		}

		info, err := sem.Analyze(prog)
		if err != nil {
			return
		}
		cold, err := bytecode.Compile(info)
		if err != nil {
			t.Fatalf("analyzed program does not compile: %v\n%s", err, printed)
		}
		changed := map[string]bool{}
		for _, m := range prog.Class.Methods {
			changed[m.Name] = true
		}
		delta, err := bytecode.CompileDelta(info, cold, changed)
		if err != nil {
			t.Fatalf("delta compile against the program's own compile: %v\n%s", err, printed)
		}
		if got, want := bytecode.Disasm(delta), bytecode.Disasm(cold); got != want {
			t.Fatalf("delta and cold compiles diverge\n--- delta ---\n%s\n--- cold ---\n%s", got, want)
		}
	})
}
