package bytecode

import (
	"strings"
	"testing"

	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
	"artemis/internal/lang/sem"
)

func compileSrc(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	bp, err := Compile(info)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return bp
}

func TestCompileStructure(t *testing.T) {
	bp := compileSrc(t, `class T {
        int f = 3;
        int[] arr = new int[]{1, 2};
        int g(int a, long b) { return a + (int)b; }
        void main() { print(g(1, 2L)); }
    }`)
	if bp.ClassName != "T" {
		t.Errorf("class name %q", bp.ClassName)
	}
	if len(bp.Fields) != 2 {
		t.Errorf("fields %d", len(bp.Fields))
	}
	if bp.MainIndex < 0 || bp.Methods[bp.MainIndex].Name != "main" {
		t.Error("main not found")
	}
	if bp.ClinitIndex < 0 {
		t.Error("clinit expected (explicit field initializers)")
	}
	g := bp.Method("g")
	if g == nil || g.NParams != 2 {
		t.Fatalf("method g: %+v", g)
	}
	if g.MaxStack == 0 {
		t.Error("MaxStack not computed")
	}
}

func TestNoClinitWithoutInitializers(t *testing.T) {
	bp := compileSrc(t, `class T { int a; void main() { print(a); } }`)
	if bp.ClinitIndex != -1 {
		t.Error("no clinit expected for default-initialized fields")
	}
}

func TestLoopsRecorded(t *testing.T) {
	bp := compileSrc(t, `class T { void main() {
        for (int i = 0; i < 3; i++) {
            for (int j = 0; j < 3; j++) { print(i + j); }
        }
        while (false) { }
    } }`)
	m := bp.Method("main")
	if len(m.Loops) != 3 {
		t.Fatalf("loops = %d, want 3", len(m.Loops))
	}
	if m.Loops[0].Depth != 1 || m.Loops[1].Depth != 2 || m.Loops[2].Depth != 1 {
		t.Errorf("loop depths %+v", m.Loops)
	}
	// Every back edge must be an OpLoopBack targeting a recorded head.
	heads := map[int]bool{}
	for _, l := range m.Loops {
		heads[l.HeadPC] = true
	}
	backs := 0
	for _, in := range m.Code {
		if in.Op == OpLoopBack {
			backs++
			if !heads[int(in.A)] {
				t.Errorf("loopback to unrecorded head %d", in.A)
			}
		}
	}
	if backs != 3 {
		t.Errorf("loopback count %d", backs)
	}
}

func TestSwitchTable(t *testing.T) {
	bp := compileSrc(t, `class T { void main() {
        switch (2) {
        case 1: print(1); break;
        case 2: print(2);
        case 3: print(3); break;
        default: print(9);
        }
    } }`)
	m := bp.Method("main")
	if len(m.Switches) != 1 {
		t.Fatalf("switch tables %d", len(m.Switches))
	}
	tab := m.Switches[0]
	if len(tab.Entries) != 3 {
		t.Errorf("entries %d", len(tab.Entries))
	}
	if tab.Lookup(2) == tab.Default {
		t.Error("case 2 should have its own target")
	}
	if tab.Lookup(42) != tab.Default {
		t.Error("unknown value should hit default")
	}
	// Fallthrough: case 2's target block must flow into case 3's.
	if tab.Lookup(2) >= tab.Lookup(3) {
		t.Errorf("case 2 target %d should precede case 3 target %d (fallthrough)", tab.Lookup(2), tab.Lookup(3))
	}
}

func TestDisasmMentionsEverything(t *testing.T) {
	bp := compileSrc(t, `class T {
        long acc = 1L;
        void main() {
            int[] a = new int[4];
            a[0] = 7;
            acc += a[0];
            print(acc);
        }
    }`)
	d := Disasm(bp)
	for _, want := range []string{"class T", "field 0: long acc", "method", "newarr", "astore", "aload", "print", "getfield", "putfield"} {
		if !strings.Contains(d, want) {
			t.Errorf("disasm missing %q:\n%s", want, d)
		}
	}
}

func TestStackDepths(t *testing.T) {
	bp := compileSrc(t, `class T {
        int f(int a) { return a * 2 + 1; }
        void main() { print(f(3) + f(4)); }
    }`)
	m := bp.Method("main")
	depths := StackDepths(m)
	if depths[0] != 0 {
		t.Errorf("entry depth %d", depths[0])
	}
	for pc, in := range m.Code {
		if in.Op == OpRet && depths[pc] >= 0 && depths[pc] != 0 {
			t.Errorf("pc %d: ret at depth %d", pc, depths[pc])
		}
	}
}

func TestVerifierRejectsBadCode(t *testing.T) {
	// Hand-build broken methods and ensure the verifier rejects them.
	// Method 0 is main, the method under test; f(int) returns int and
	// g() returns void, as call targets.
	f := &Method{Name: "f", Index: 1, NParams: 1, Ret: ast.TypeInt, Locals: []ast.Type{ast.TypeInt},
		Code: []Instr{{Op: OpLoad, A: 0}, {Op: OpRetV}}}
	g := &Method{Name: "g", Index: 2, Ret: ast.TypeVoid, Code: []Instr{{Op: OpRet}}}
	mk := func(code []Instr, loops ...LoopInfo) *Program {
		m := &Method{Name: "main", Ret: ast.TypeVoid, Code: code, Locals: []ast.Type{ast.TypeInt}, Loops: loops}
		return &Program{ClassName: "X", Methods: []*Method{m, f, g}, MainIndex: 0, ClinitIndex: -1}
	}
	// Loop 0 heads pc 0 and loop 1 pc 2; the stack is empty at pcs 0, 2
	// and 4, so a back-edge to any of them is well formed but for its
	// loop id.
	loops := []LoopInfo{{ID: 0, HeadPC: 0, Depth: 1}, {ID: 1, HeadPC: 2, Depth: 2}}
	loopBody := func(back Instr) []Instr {
		return []Instr{{Op: OpConst, A: 1}, {Op: OpPop}, {Op: OpConst, A: 2}, {Op: OpPop}, back}
	}
	cases := []struct {
		name  string
		code  []Instr
		loops []LoopInfo
	}{
		{"underflow", []Instr{{Op: OpPop}, {Op: OpRet}}, nil},
		{"bad target", []Instr{{Op: OpGoto, A: 99}, {Op: OpRet}}, nil},
		{"bad slot", []Instr{{Op: OpLoad, A: 7}, {Op: OpPop}, {Op: OpRet}}, nil},
		{"ret with stack", []Instr{{Op: OpConst, A: 1}, {Op: OpRet}}, nil},
		{"inconsistent depth", []Instr{
			{Op: OpConst, A: 1},
			{Op: OpIfTrue, A: 3},
			{Op: OpConst, A: 5}, // fallthrough pushes, branch target below expects empty
			{Op: OpRet},
		}, nil},
		{"loopback without loops", []Instr{{Op: OpLoopBack, A: 0}}, nil},
		{"loopback to no loop head", loopBody(Instr{Op: OpLoopBack, A: 4, B: 0}), loops},
		{"loopback to another loop's head", loopBody(Instr{Op: OpLoopBack, A: 2, B: 0}), loops},
		{"unknown opcode in unreachable code", []Instr{{Op: OpRet}, {Op: Op(200)}}, nil},
		{"zero opcode in unreachable code", []Instr{{Op: OpRet}, {}}, nil},
		{"bad target in unreachable code", []Instr{{Op: OpRet}, {Op: OpGoto, A: -1}}, nil},
		{"call arity differs from callee", []Instr{
			{Op: OpConst, A: 1}, {Op: OpConst, A: 2}, {Op: OpCall, A: 1, B: 2}, {Op: OpPop}, {Op: OpRet},
		}, nil},
		{"call of void callee", []Instr{{Op: OpCall, A: 2}, {Op: OpPop}, {Op: OpRet}}, nil},
		{"void call of value callee", []Instr{{Op: OpConst, A: 1}, {Op: OpCallV, A: 1, B: 1}, {Op: OpRet}}, nil},
		{"retv in void method", []Instr{{Op: OpConst, A: 1}, {Op: OpRetV}}, nil},
		{"bad print kind", []Instr{{Op: OpConst, A: 1}, {Op: OpPrint, Kind: uint8(ast.KindVoid)}, {Op: OpRet}}, nil},
	}
	for _, tc := range cases {
		p := mk(tc.code, tc.loops...)
		if err := verifyMethod(p, p.Methods[0]); err == nil {
			t.Errorf("%s: verifier accepted bad code", tc.name)
		}
	}

	// Controls: the same shapes, well formed, are accepted.
	good := []struct {
		name  string
		code  []Instr
		loops []LoopInfo
	}{
		{"loopback to its loop's head", loopBody(Instr{Op: OpLoopBack, A: 2, B: 1}), loops},
		{"calls", []Instr{
			{Op: OpConst, A: 1}, {Op: OpCall, A: 1, B: 1}, {Op: OpPop}, {Op: OpCallV, A: 2}, {Op: OpRet},
		}, nil},
	}
	for _, tc := range good {
		p := mk(tc.code, tc.loops...)
		if err := verifyMethod(p, p.Methods[0]); err != nil {
			t.Errorf("%s: verifier rejected good code: %v", tc.name, err)
		}
	}
}

func TestCondHelpers(t *testing.T) {
	conds := []Cond{CondEQ, CondNE, CondLT, CondLE, CondGT, CondGE}
	for _, c := range conds {
		n := c.Negate()
		for a := int64(-2); a <= 2; a++ {
			for b := int64(-2); b <= 2; b++ {
				if c.Eval(a, b) == n.Eval(a, b) {
					t.Errorf("cond %v and negation agree on (%d,%d)", c, a, b)
				}
			}
		}
	}
}

func TestCompoundArrayAssignBytecode(t *testing.T) {
	bp := compileSrc(t, `class T { void main() {
        int[] a = new int[]{5};
        a[0] += 3;
        print(a[0]);
    } }`)
	m := bp.Method("main")
	hasDup2 := false
	for _, in := range m.Code {
		if in.Op == OpDup2 {
			hasDup2 = true
		}
	}
	if !hasDup2 {
		t.Error("compound array assignment should use dup2")
	}
}

// TestCompileDeltaStructuralChecks: the incremental compiler asserts
// that a mutant keeps its seed's methods, their signatures and its
// fields, so that reused methods and indices stay valid; each violation
// is an error. The mutant edits main, as JoNM would.
func TestCompileDeltaStructuralChecks(t *testing.T) {
	const seed = `class T {
        int a = 1;
        long b;
        int f(int x) { return x + a; }
        void main() { print(f(2)); }
    }`
	tests := []struct{ name, src, want string }{
		{"valid", `class T {
            int a = 1; long b; int c = 3;
            int f(int x) { return x + a; }
            void main() { print(f(c)); }
        }`, ""},
		{"method added", `class T {
            int a = 1; long b;
            int f(int x) { return x + a; }
            int g() { return 0; }
            void main() { print(f(2)); }
        }`, "method count changed (2 -> 3)"},
		{"method renamed", `class T {
            int a = 1; long b;
            int h(int x) { return x + a; }
            void main() { print(h(2)); }
        }`, "method 0 renamed (f -> h)"},
		{"field removed", `class T {
            int a = 1;
            int f(int x) { return x + a; }
            void main() { print(f(2)); }
        }`, "fields removed (2 -> 1)"},
		{"field renamed", `class T {
            int a = 1; long c;
            int f(int x) { return x + a; }
            void main() { print(f(2)); }
        }`, "field 1 changed (b -> c)"},
		{"field retyped", `class T {
            int a = 1; int b;
            int f(int x) { return x + a; }
            void main() { print(f(2)); }
        }`, "field 1 changed (b -> b)"},
		{"unchanged method re-signed", `class T {
            int a = 1; long b;
            int f(int x, int y) { return x + a; }
            void main() { print(f(2, 3)); }
        }`, "signature of f changed"},
	}
	base := compileSrc(t, seed)
	for _, tt := range tests {
		prog, err := parser.Parse(tt.src)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		info, err := sem.Analyze(prog)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		_, err = CompileDelta(info, base, map[string]bool{"main": true})
		switch {
		case tt.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tt.name, err)
		case tt.want != "" && (err == nil || !strings.Contains(err.Error(), tt.want)):
			t.Errorf("%s: error %v, want %q", tt.name, err, tt.want)
		}
	}
}
