package ast

import "testing"

func TestTypeHelpers(t *testing.T) {
	if !TypeInt.IsNumeric() || !TypeLong.IsNumeric() || TypeBoolean.IsNumeric() {
		t.Error("IsNumeric wrong")
	}
	arr := ArrayOf(KindInt)
	if !arr.IsArray() || arr.ElemType() != TypeInt {
		t.Error("array helpers wrong")
	}
	if TypeInt.ElemType() != TypeInvalid {
		t.Error("ElemType of scalar should be invalid")
	}
	if arr.String() != "int[]" || TypeLong.String() != "long" {
		t.Errorf("type strings: %q %q", arr.String(), TypeLong.String())
	}
	if !arr.Equal(ArrayOf(KindInt)) || arr.Equal(ArrayOf(KindLong)) {
		t.Error("type equality wrong")
	}
}

func TestAssignOpBinOp(t *testing.T) {
	pairs := map[AssignOp]BinOp{
		AsnAdd: OpAdd, AsnSub: OpSub, AsnMul: OpMul, AsnDiv: OpDiv,
		AsnRem: OpRem, AsnAnd: OpAnd, AsnOr: OpOr, AsnXor: OpXor,
		AsnShl: OpShl, AsnShr: OpShr, AsnUshr: OpUshr,
	}
	for asn, bin := range pairs {
		if asn.BinOp() != bin {
			t.Errorf("%v.BinOp() = %v, want %v", asn, asn.BinOp(), bin)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("AsnSet.BinOp() should panic")
		}
	}()
	AsnSet.BinOp()
}

func TestBinOpClassifiers(t *testing.T) {
	if !OpLt.IsComparison() || !OpNe.IsComparison() || OpAdd.IsComparison() {
		t.Error("IsComparison wrong")
	}
	if !OpShl.IsShift() || !OpUshr.IsShift() || OpAnd.IsShift() {
		t.Error("IsShift wrong")
	}
	if !OpLAnd.IsLogical() || OpAnd.IsLogical() {
		t.Error("IsLogical wrong")
	}
}

func buildMethod() *Method {
	// void m(int p) { int x = p; if (x > 0) { x = x - 1; } while (x > 0) { x = x - 1; } }
	px := &Ident{Name: "p"}
	decl := &DeclStmt{Type: TypeInt, Name: "x", Init: px}
	cond := &BinaryExpr{Op: OpGt, X: &Ident{Name: "x"}, Y: &IntLit{Value: 0}}
	asn := &AssignStmt{Target: &Ident{Name: "x"}, Op: AsnSet,
		Value: &BinaryExpr{Op: OpSub, X: &Ident{Name: "x"}, Y: &IntLit{Value: 1}}}
	ifs := &IfStmt{Cond: CloneExpr(cond), Then: &Block{Stmts: []Stmt{CloneStmt(asn)}}}
	wh := &WhileStmt{Cond: CloneExpr(cond), Body: &Block{Stmts: []Stmt{CloneStmt(asn)}}}
	return &Method{
		Ret: TypeVoid, Name: "m",
		Params: []*Param{{Type: TypeInt, Name: "p"}},
		Body:   &Block{Stmts: []Stmt{decl, ifs, wh}},
	}
}

func TestWalkStmtsVisitsEverything(t *testing.T) {
	m := buildMethod()
	var kinds []string
	WalkStmts(m, func(s Stmt) bool {
		switch s.(type) {
		case *DeclStmt:
			kinds = append(kinds, "decl")
		case *IfStmt:
			kinds = append(kinds, "if")
		case *WhileStmt:
			kinds = append(kinds, "while")
		case *AssignStmt:
			kinds = append(kinds, "assign")
		}
		return true
	})
	want := []string{"decl", "if", "assign", "while", "assign"}
	if len(kinds) != len(want) {
		t.Fatalf("visited %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("visited %v, want %v", kinds, want)
		}
	}
}

func TestWalkStmtsEarlyStop(t *testing.T) {
	m := buildMethod()
	n := 0
	WalkStmts(m, func(s Stmt) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestCountStmtsExcludesBlocks(t *testing.T) {
	m := buildMethod()
	// decl, if, assign, while, assign = 5
	if got := CountStmts(m); got != 5 {
		t.Errorf("CountStmts = %d, want 5", got)
	}
}

func TestWalkExprsFindsIdents(t *testing.T) {
	m := buildMethod()
	idents := map[string]int{}
	walk := func(e Expr) {
		WalkExprs(e, func(e Expr) {
			if id, ok := e.(*Ident); ok {
				idents[id.Name]++
			}
		})
	}
	WalkStmts(m, func(s Stmt) bool {
		switch s := s.(type) {
		case *DeclStmt:
			walk(s.Init)
		case *AssignStmt:
			walk(s.Target)
			walk(s.Value)
		case *IfStmt:
			walk(s.Cond)
		case *WhileStmt:
			walk(s.Cond)
		}
		return true
	})
	if idents["p"] != 1 {
		t.Errorf("p seen %d times", idents["p"])
	}
	if idents["x"] != 6 {
		t.Errorf("x seen %d times, want 6", idents["x"])
	}
}

func TestProgramSize(t *testing.T) {
	p := &Program{Class: &Class{Name: "T", Methods: []*Method{buildMethod(), buildMethod()}}}
	if got := ProgramSize(p); got != 10 {
		t.Errorf("ProgramSize = %d, want 10", got)
	}
}

func TestCloneDeepIndependence(t *testing.T) {
	m := buildMethod()
	cl := CloneMethod(m)
	// Mutate a deeply nested node of the clone.
	ifs := cl.Body.Stmts[1].(*IfStmt)
	ifs.Then.Stmts[0].(*AssignStmt).Op = AsnAdd
	orig := m.Body.Stmts[1].(*IfStmt).Then.Stmts[0].(*AssignStmt)
	if orig.Op != AsnSet {
		t.Error("clone shares nodes with original")
	}
}
