package parser

import (
	"strings"
	"testing"

	"artemis/internal/lang/ast"
)

const sample = `class T {
    boolean z = false;
    int l = 0;
    int[] k = new int[]{3, 1, 4, 1, 5};

    void g() {
        for (int i = 0; i < k.length; i++) {
            int m = k[i];
            switch ((m >>> 1) % 10 + 3) {
            case 3:
                for (int w = -2967; w < 4342; w += 4);
                l += 2;
            case 4:
                break;
            case 5:
                k[1] = 9;
            default:
                l -= 1;
            }
        }
    }

    int o(int a, long b) {
        if (z) {
            return a;
        }
        return (int)(b % 7L) + a;
    }

    void main() {
        long acc = 0L;
        int q = 2;
        while (q < 5) {
            acc += o(q, 9999L);
            q++;
        }
        g();
        print(acc);
        print(l);
    }
}
`

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

func TestParseSample(t *testing.T) {
	p := mustParse(t, sample)
	c := p.Class
	if c.Name != "T" {
		t.Errorf("class name %q", c.Name)
	}
	if len(c.Fields) != 3 {
		t.Errorf("fields = %d, want 3", len(c.Fields))
	}
	if len(c.Methods) != 3 {
		t.Errorf("methods = %d, want 3", len(c.Methods))
	}
	o := c.Method("o")
	if o == nil || len(o.Params) != 2 || o.Ret != ast.TypeInt {
		t.Fatalf("method o parsed wrong: %+v", o)
	}
	if o.Params[1].Type != ast.TypeLong {
		t.Errorf("o param 1 type %v", o.Params[1].Type)
	}
}

// TestPrintRoundTrip checks parse -> print -> parse -> print is a fixed
// point.
func TestPrintRoundTrip(t *testing.T) {
	p1 := mustParse(t, sample)
	s1 := ast.Print(p1)
	p2, err := Parse(s1)
	if err != nil {
		t.Fatalf("reparse failed: %v\nsource:\n%s", err, s1)
	}
	s2 := ast.Print(p2)
	if s1 != s2 {
		t.Errorf("print not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", s1, s2)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := mustParse(t, sample)
	cl := ast.CloneProgram(p)
	if ast.Print(p) != ast.Print(cl) {
		t.Fatal("clone prints differently")
	}
	// Mutate the clone; original must not change.
	cl.Class.Methods[0].Body.Stmts = nil
	if ast.Print(p) == ast.Print(cl) {
		t.Fatal("mutating clone affected original")
	}
}

func TestEmptyForBody(t *testing.T) {
	p := mustParse(t, `class A { void main() { for (int w = 0; w < 10; w += 4); } }`)
	f := p.Class.Methods[0].Body.Stmts[0].(*ast.ForStmt)
	if len(f.Body.Stmts) != 0 {
		t.Errorf("empty for body has %d stmts", len(f.Body.Stmts))
	}
}

func TestPrecedence(t *testing.T) {
	tests := []struct{ src, want string }{
		{"1 + 2 * 3", "1 + 2 * 3"},
		{"(1 + 2) * 3", "(1 + 2) * 3"},
		{"1 << 2 + 3", "1 << 2 + 3"},
		{"a & b | c ^ d", "a & b | c ^ d"},
		{"-a * b", "-a * b"},
		{"-(a * b)", "-(a * b)"},
		{"a - b - c", "a - b - c"},
		{"a - (b - c)", "a - (b - c)"},
		{"a == b != c", "a == b != c"},
		{"x ? y : (z ? w : v)", "x ? y : z ? w : v"}, // ?: is right-associative, parens redundant
		{"-(-5)", "-(-5)"},
		// The minimum literals lex as their wrapped magnitude under a
		// minus sign, and must print back that way to reparse the same.
		{"-2147483648", "-2147483648"},
		{"-9223372036854775808L", "-9223372036854775808L"},
		{"-(-2147483648)", "-(-2147483648)"},
	}
	for _, tt := range tests {
		src := "class A { int f(int a, int b, int c, int d, boolean x, int y, int z, int w, int v) { return " + tt.src + "; } void main() { } }"
		p, err := Parse(src)
		if err != nil {
			t.Errorf("%q: %v", tt.src, err)
			continue
		}
		ret := p.Class.Methods[0].Body.Stmts[0].(*ast.ReturnStmt)
		if got := ast.PrintExpr(ret.Value); got != tt.want {
			t.Errorf("%q printed as %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestTernaryRightAssociative(t *testing.T) {
	src := "class A { int f(boolean x, boolean z) { return x ? 1 : z ? 2 : 3; } void main() { } }"
	p := mustParse(t, src)
	ret := p.Class.Methods[0].Body.Stmts[0].(*ast.ReturnStmt)
	ce := ret.Value.(*ast.CondExpr)
	if _, ok := ce.Else.(*ast.CondExpr); !ok {
		t.Error("ternary should nest in else branch")
	}
}

func TestCastVsParen(t *testing.T) {
	src := `class A { void main() { long l = 5L; int i = (int)l; int j = (i) + 1; long k = (long)i; print(j + k); } }`
	mustParse(t, src)
}

func TestIncDecDesugar(t *testing.T) {
	p := mustParse(t, `class A { void main() { int i = 0; i++; i--; } }`)
	stmts := p.Class.Methods[0].Body.Stmts
	inc := stmts[1].(*ast.AssignStmt)
	if inc.Op != ast.AsnAdd {
		t.Errorf("i++ desugared to %v", inc.Op)
	}
	dec := stmts[2].(*ast.AssignStmt)
	if dec.Op != ast.AsnSub {
		t.Errorf("i-- desugared to %v", dec.Op)
	}
}

func TestSwitchNegativeCase(t *testing.T) {
	p := mustParse(t, `class A { void main() { switch (1) { case -3: break; default: break; } } }`)
	sw := p.Class.Methods[0].Body.Stmts[0].(*ast.SwitchStmt)
	if sw.Cases[0].Values[0] != -3 {
		t.Errorf("negative case label = %d", sw.Cases[0].Values[0])
	}
}

func TestStackedCaseLabels(t *testing.T) {
	p := mustParse(t, `class A { void main() { switch (1) { case 1: case 2: case 3: break; } } }`)
	sw := p.Class.Methods[0].Body.Stmts[0].(*ast.SwitchStmt)
	if len(sw.Cases) != 1 || len(sw.Cases[0].Values) != 3 {
		t.Errorf("stacked labels parsed as %d cases", len(sw.Cases))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"class",
		"class A {",
		"class A { int }",
		"class A { void main() { int x = ; } }",
		"class A { void main() { 1 + 2; } }",   // expr stmt must be call
		"class A { void main() { x = 1 } }",    // missing semi
		"class A { void main() { if x { } } }", // missing parens
		"class A { void main() { switch (1) { foo; } } }", // stmt before case
		"class A { void main() { for (1+2; true; ) { } } }",
		"class A { void f() { } void f() { } void main() { } } extra",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestDeeplyNested(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("class A { void main() { int x = 0; ")
	const depth = 40
	for i := 0; i < depth; i++ {
		sb.WriteString("if (x == 0) { ")
	}
	sb.WriteString("x = 1; ")
	for i := 0; i < depth; i++ {
		sb.WriteString("} ")
	}
	sb.WriteString("print(x); } }")
	mustParse(t, sb.String())
}
