package sem

import (
	"strings"
	"testing"

	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
)

func analyzeSrc(t *testing.T, src string) (*Info, error) {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		// Some invalid-program table entries are rejected by the
		// parser already; report that as the analysis error.
		return nil, err
	}
	return Analyze(p)
}

func mustAnalyze(t *testing.T, src string) *Info {
	t.Helper()
	info, err := analyzeSrc(t, src)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return info
}

func TestResolveLocalsAndFields(t *testing.T) {
	info := mustAnalyze(t, `class T {
        int f = 3;
        int g(int a) {
            int b = a + f;
            return b;
        }
        void main() { print(g(1)); }
    }`)
	g := info.Prog.Class.Method("g")
	mi := info.Methods["g"]
	if len(mi.Locals) != 2 {
		t.Fatalf("g locals = %d, want 2", len(mi.Locals))
	}
	decl := g.Body.Stmts[0].(*ast.DeclStmt)
	if decl.Slot != 1 {
		t.Errorf("b slot = %d, want 1", decl.Slot)
	}
	bin := decl.Init.(*ast.BinaryExpr)
	a := bin.X.(*ast.Ident)
	if a.Ref != ast.RefLocal || a.Index != 0 {
		t.Errorf("a resolved to %v/%d", a.Ref, a.Index)
	}
	f := bin.Y.(*ast.Ident)
	if f.Ref != ast.RefField || f.Index != 0 {
		t.Errorf("f resolved to %v/%d", f.Ref, f.Index)
	}
}

func TestLocalShadowsField(t *testing.T) {
	info := mustAnalyze(t, `class T {
        int x = 1;
        void main() { int x = 2; print(x); }
    }`)
	m := info.Prog.Class.Method("main")
	pr := m.Body.Stmts[1].(*ast.PrintStmt)
	id := pr.X.(*ast.Ident)
	if id.Ref != ast.RefLocal {
		t.Error("local should shadow field")
	}
}

func TestTypePromotion(t *testing.T) {
	info := mustAnalyze(t, `class T {
        void main() {
            int i = 1;
            long l = 2L;
            print(i + l);
            print(i + i);
            print(l << i);
            print(i << l);
        }
    }`)
	m := info.Prog.Class.Method("main")
	types := []ast.Type{}
	for _, s := range m.Body.Stmts[2:] {
		types = append(types, s.(*ast.PrintStmt).X.Type())
	}
	want := []ast.Type{ast.TypeLong, ast.TypeInt, ast.TypeLong, ast.TypeInt}
	for i, w := range want {
		if types[i] != w {
			t.Errorf("print %d type %v, want %v", i, types[i], w)
		}
	}
}

func TestWideningAssignment(t *testing.T) {
	mustAnalyze(t, `class T { void main() { long l = 5; l = 7; int i = 1; l = i; } }`)
}

func TestCompoundNarrowing(t *testing.T) {
	// Java: i += longVal is legal (implicit narrowing).
	mustAnalyze(t, `class T { void main() { int i = 1; long l = 100L; i += l; i *= l; print(i); } }`)
}

func TestBooleanBitOps(t *testing.T) {
	mustAnalyze(t, `class T { void main() { boolean a = true; boolean b = a & false | a ^ true; b &= a; print(b); } }`)
}

func TestSemErrors(t *testing.T) {
	bad := []struct{ name, src string }{
		{"no main", `class T { void f() { } }`},
		{"main with params", `class T { void main(int x) { } }`},
		{"main non-void", `class T { int main() { return 1; } }`},
		{"undefined var", `class T { void main() { print(x); } }`},
		{"undefined method", `class T { void main() { f(); } }`},
		{"dup field", `class T { int a; int a; void main() { } }`},
		{"dup method", `class T { void f() { } void f() { } void main() { } }`},
		{"dup local", `class T { void main() { int a = 1; int a = 2; } }`},
		{"dup local nested", `class T { void main() { int a = 1; { int a = 2; } } }`},
		{"narrowing assign", `class T { void main() { long l = 5L; int i = l; } }`},
		{"bool arith", `class T { void main() { print(true + 1); } }`},
		{"int cond", `class T { void main() { if (1) { } } }`},
		{"break outside", `class T { void main() { break; } }`},
		{"continue outside", `class T { void main() { continue; } }`},
		{"continue in switch", `class T { void main() { switch (1) { case 1: continue; } } }`},
		{"missing return", `class T { int f() { int x = 1; } void main() { } }`},
		{"missing return if", `class T { int f(boolean b) { if (b) { return 1; } } void main() { } }`},
		{"void return value", `class T { void main() { return 1; } }`},
		{"value return void", `class T { int f() { return; } void main() { } }`},
		{"wrong return type", `class T { int f() { return true; } void main() { } }`},
		{"return narrowing", `class T { int f() { return 5L; } void main() { } }`},
		{"arg count", `class T { int f(int a) { return a; } void main() { print(f(1, 2)); } }`},
		{"arg type", `class T { int f(int a) { return a; } void main() { print(f(true)); } }`},
		{"arg narrowing", `class T { int f(int a) { return a; } void main() { print(f(5L)); } }`},
		{"index non-array", `class T { void main() { int i = 0; print(i[0]); } }`},
		{"long index", `class T { void main() { int[] a = new int[3]; print(a[0L]); } }`},
		{"length non-array", `class T { void main() { int i = 0; print(i.length); } }`},
		{"uninit array local", `class T { void main() { int[] a; } }`},
		{"switch long tag", `class T { void main() { switch (1L) { case 1: break; } } }`},
		{"dup case", `class T { void main() { switch (1) { case 2: break; case 2: break; } } }`},
		{"dup default", `class T { void main() { switch (1) { default: break; default: break; } } }`},
		{"print array", `class T { void main() { int[] a = new int[1]; print(a); } }`},
		{"print void", `class T { void f() { } void main() { print(f()); } }`},
		{"field init call", `class T { int g() { return 1; } int x = g(); void main() { } }`},
		{"field init narrowing", `class T { int x = 5L; void main() { } }`},
		{"ternary mismatch", `class T { void main() { boolean b = true; print(b ? 1 : false); } }`},
		{"cast boolean", `class T { void main() { boolean b = true; print((int)b); } }`},
		{"compare array", `class T { void main() { int[] a = new int[1]; int[] b = new int[1]; print(a == b); } }`},
		{"assign to call", `class T { int f() { return 1; } void main() { f() = 3; } }`},
	}
	for _, tt := range bad {
		if _, err := analyzeSrc(t, tt.src); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}

func TestReachability(t *testing.T) {
	good := []string{
		`class T { int f(boolean b) { if (b) { return 1; } else { return 2; } } void main() { } }`,
		`class T { int f() { while (true) { } } void main() { } }`,
		`class T { int f() { for (;;) { } } void main() { } }`,
		`class T { int f(boolean b) { for (;;) { if (b) { return 1; } } } void main() { } }`,
	}
	for _, src := range good {
		if _, err := analyzeSrc(t, src); err != nil {
			t.Errorf("%s: unexpected error %v", src, err)
		}
	}
	bad := []string{
		`class T { int f() { while (true) { break; } } void main() { } }`,
		`class T { int f(boolean b) { for (;;) { if (b) { break; } } } void main() { } }`,
		`class T { int f(boolean b) { while (b) { return 1; } } void main() { } }`,
	}
	for _, src := range bad {
		if _, err := analyzeSrc(t, src); err == nil {
			t.Errorf("%s: expected missing-return error", src)
		}
	}
}

func TestSlotAllocationNoReuse(t *testing.T) {
	info := mustAnalyze(t, `class T {
        void main() {
            { int a = 1; print(a); }
            { int b = 2; print(b); }
            long c = 3L;
            print(c);
        }
    }`)
	mi := info.Methods["main"]
	if len(mi.Locals) != 3 {
		t.Fatalf("locals = %d, want 3 (no slot reuse)", len(mi.Locals))
	}
	if mi.Locals[2] != ast.TypeLong {
		t.Errorf("slot 2 type %v, want long", mi.Locals[2])
	}
}

func TestErrorMessagesMentionNames(t *testing.T) {
	_, err := analyzeSrc(t, `class T { void main() { print(frobnicate); } }`)
	if err == nil || !strings.Contains(err.Error(), "frobnicate") {
		t.Errorf("error %v should mention the undefined name", err)
	}
}

func TestCaseLabelRange(t *testing.T) {
	// Case labels beyond int range are rejected by the lexer/parser
	// already; in-range big values are fine.
	mustAnalyze(t, `class T { void main() { switch (1) { case 2147483647: break; } } }`)
}

// TestAnalyzeDeltaStructuralChecks: the incremental analysis asserts
// that a mutant keeps its seed's methods and fields, and checks the
// initializers of the fields it appends; each violation is an error,
// not a silent mis-analysis. The mutant edits main, as JoNM would.
func TestAnalyzeDeltaStructuralChecks(t *testing.T) {
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
        }`, "field 1 changed (long b -> long c)"},
		{"field retyped", `class T {
            int a = 1; int b;
            int f(int x) { return x + a; }
            void main() { print(f(2)); }
        }`, "field 1 changed (long b -> int b)"},
		{"appended initializer calls", `class T {
            int a = 1; long b; int c = f(1);
            int f(int x) { return x + a; }
            void main() { print(f(c)); }
        }`, "field initializer for c may not call methods"},
	}
	base := mustAnalyze(t, seed)
	for _, tt := range tests {
		prog, err := parser.Parse(tt.src)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		_, err = AnalyzeDelta(prog, base, map[string]bool{"main": true})
		switch {
		case tt.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tt.name, err)
		case tt.want != "" && (err == nil || !strings.Contains(err.Error(), tt.want)):
			t.Errorf("%s: error %v, want %q", tt.name, err, tt.want)
		}
	}
}
