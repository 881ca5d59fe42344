package reduce

import (
	"testing"

	"artemis/internal/lang/ast"
	"artemis/internal/vm"
)

const guardSrc = `class T {
    int junk1(int x) { return x * 3; }
    int junk2(int x) { return x - 11; }
    void main() {
        int a = 5;
        int b = 2;
        for (int i = 0; i < 4; i++) { b += junk1(i); }
        print(a + 2);
        print(junk2(b));
    }
}`

// TestReduceRejectsUninterestingInput is the regression test for the
// unchecked precondition: the reducer documented that keep(p) must hold
// but never verified it. Given an input that is NOT interesting, the old
// code would happily shrink toward whatever small program first
// satisfies the predicate — returning a "reduced reproducer" for a
// behaviour the input never had. Now the precondition is probed up
// front and the input comes back unchanged.
func TestReduceRejectsUninterestingInput(t *testing.T) {
	p := mustParse(t, guardSrc)
	// "Interesting" = prints nothing. The input prints two lines, so
	// the precondition is violated — but statement removal could
	// easily manufacture a silent program.
	keep := func(q *ast.Program) bool { return runOut(q).NLines == 0 }
	calls := 0
	got, _ := ReduceChecked(p, func(q *ast.Program) bool { calls++; return keep(q) }, Options{})
	if ast.Print(got) != ast.Print(p) {
		t.Errorf("ReduceChecked changed an uninteresting input:\n%s", ast.Print(got))
	}
	if calls != 1 {
		t.Errorf("predicate consulted %d times, want exactly the one precondition probe", calls)
	}
}

// TestReduceCheckedReportsPrecondition: callers (cmd/mjreduce, the
// campaign auto-reducer) need to distinguish "already minimal" from
// "never triggered the finding"; ReduceChecked must say which.
func TestReduceCheckedReportsPrecondition(t *testing.T) {
	p := mustParse(t, guardSrc)
	got, ok := ReduceChecked(p, func(q *ast.Program) bool { return false }, Options{})
	if ok {
		t.Error("ReduceChecked reported ok for an input that never satisfies the predicate")
	}
	if ast.Print(got) != ast.Print(p) {
		t.Error("failed precondition must return the input unchanged")
	}
	got, ok = ReduceChecked(p, func(q *ast.Program) bool { return true }, Options{})
	if !ok {
		t.Error("ReduceChecked reported failure for a satisfiable predicate")
	}
	if ast.ProgramSize(got) >= ast.ProgramSize(p) {
		t.Error("trivially-keepable program was not reduced at all")
	}
}

// TestReduceNegativeMaxRounds: a negative MaxRounds used to slip past
// the ==0 default check, so the round loop never ran and the reducer
// returned the input unreduced. Negative values now clamp to the
// default and reduction proceeds.
func TestReduceNegativeMaxRounds(t *testing.T) {
	p := mustParse(t, guardSrc)
	ref := runOut(p)
	if ref.Term != vm.TermNormal {
		t.Fatalf("guard program must run: %v %s", ref.Term, ref.Detail)
	}
	keep := func(q *ast.Program) bool {
		o := runOut(q)
		return o.Term == vm.TermNormal && o.NLines >= 1 && o.Lines[0] == "7"
	}
	if !keep(p) {
		t.Fatal("precondition: input must be interesting")
	}
	got, _ := ReduceChecked(p, keep, Options{MaxRounds: -5})
	if !keep(got) {
		t.Fatal("reduced program lost the predicate")
	}
	if len(got.Class.Methods) >= len(p.Class.Methods) {
		t.Errorf("MaxRounds=-5 performed no reduction: still %d methods\n%s",
			len(got.Class.Methods), ast.Print(got))
	}
}
