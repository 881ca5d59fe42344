// Package sem performs symbol resolution and type checking for MJ
// programs. Analysis annotates the AST in place (expression types,
// identifier resolutions, local slots) and returns per-method slot
// tables that the bytecode compiler and the VM's GC ref maps consume.
//
// Deliberate deviations from Java, chosen for determinism and
// documented in DESIGN.md:
//
//   - Locals without initializers are zero-initialized (Java instead
//     requires definite assignment). This is consistent across the
//     interpreter and both JIT tiers, so it cannot cause false
//     differential alarms.
//   - There is no null: array locals must be initialized, and array
//     fields default to empty arrays.
package sem

import (
	"fmt"

	"artemis/internal/lang/ast"
)

// Error is a semantic error.
type Error struct {
	Pos ast.Pos
	Msg string
}

func (e *Error) Error() string { return e.Msg }

// MethodInfo carries the analysis results for one method.
type MethodInfo struct {
	Index  int        // index into Class.Methods
	Locals []ast.Type // type of each local slot; params occupy slots 0..len(Params)-1
}

// Info is the result of analyzing a program.
type Info struct {
	Prog    *ast.Program
	Methods map[string]*MethodInfo
}

// Analyze resolves and type-checks prog, annotating the AST in place.
func Analyze(prog *ast.Program) (*Info, error) {
	return analyze(prog, nil, nil)
}

// MustAnalyze is Analyze for programs known to be valid (synthesized
// internally); it panics on error.
func MustAnalyze(prog *ast.Program) *Info {
	info, err := Analyze(prog)
	if err != nil {
		panic(fmt.Sprintf("sem: internal program failed analysis: %v", err))
	}
	return info
}

// AnalyzeDelta re-analyzes only the methods named in changed, reusing
// base's per-method results for everything else. It is the incremental
// path for JoNM mutants: prog must share base.Prog's unchanged methods
// (or clones of them that still carry the annotations written when
// base was computed), and its divergence from the seed is limited to
// what JoNM produces — edited method bodies and fields appended after
// the seed's (never reordered, removed, or re-typed). Those structural
// invariants are asserted, not assumed: a violation returns an error
// instead of silently mis-analyzing.
//
// The result is identical to Analyze(prog): analysis visits methods
// independently given the global field/method tables, so re-checking
// only the changed bodies and adopting base's MethodInfo for untouched
// ones reproduces the same Info and the same AST annotations, without
// writing to any node shared with base.
func AnalyzeDelta(prog *ast.Program, base *Info, changed map[string]bool) (*Info, error) {
	return analyze(prog, base, changed)
}

type checker struct {
	prog    *ast.Program
	fields  map[string]int
	methods map[string]int
	info    *Info

	// Per-method state.
	method *ast.Method
	minfo  *MethodInfo
	// Flat scope chain: locals in declaration order, marks holding
	// scope boundaries. Redeclaration anywhere in the chain is an
	// error (no shadowing), so linear scans resolve exactly like the
	// scope-stack of maps did, without a map allocation per block.
	locals   []localEnt
	marks    []int
	loops    int // loop nesting depth (for break/continue)
	switches int // switch nesting depth (for break)
}

func (c *checker) errorf(pos ast.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// analyze is the one analysis driver; with no base (Analyze) it has
// nothing to adopt and checks every field initializer and method.
func analyze(prog *ast.Program, base *Info, changed map[string]bool) (*Info, error) {
	c := &checker{
		prog:    prog,
		fields:  map[string]int{},
		methods: map[string]int{},
		info:    &Info{Prog: prog, Methods: map[string]*MethodInfo{}},
	}
	cls := prog.Class
	seenFields := 0
	if base != nil {
		if err := c.checkStable(base.Prog.Class); err != nil {
			return nil, err
		}
		seenFields = len(base.Prog.Class.Fields)
	}
	for i, f := range cls.Fields {
		if _, dup := c.fields[f.Name]; dup {
			return nil, c.errorf(f.Pos, "duplicate field %s", f.Name)
		}
		c.fields[f.Name] = i
	}
	for i, m := range cls.Methods {
		if _, dup := c.methods[m.Name]; dup {
			return nil, c.errorf(m.Pos, "duplicate method %s", m.Name)
		}
		c.methods[m.Name] = i
	}
	main, ok := c.methods["main"]
	if !ok {
		return nil, c.errorf(cls.Pos, "program has no main method")
	}
	if mm := cls.Methods[main]; len(mm.Params) > 0 || mm.Ret.Kind != ast.KindVoid {
		return nil, c.errorf(mm.Pos, "main must be 'void main()'")
	}

	// Field initializers: constant-ish expressions only (no calls), so
	// the synthetic <clinit> cannot recurse into program methods.
	for _, f := range cls.Fields[seenFields:] {
		if f.Init == nil {
			continue
		}
		bad := false
		ast.WalkExprs(f.Init, func(e ast.Expr) {
			if _, isCall := e.(*ast.CallExpr); isCall {
				bad = true
			}
		})
		if bad {
			return nil, c.errorf(f.Pos, "field initializer for %s may not call methods", f.Name)
		}
		c.method = nil
		c.locals, c.marks = c.locals[:0], c.marks[:0]
		t, err := c.expr(f.Init)
		if err != nil {
			return nil, err
		}
		if !assignable(f.Type, t) {
			return nil, c.errorf(f.Pos, "cannot initialize %s field %s with %s", f.Type, f.Name, t)
		}
	}

	for i, m := range cls.Methods {
		if base != nil && !changed[m.Name] {
			bi := base.Methods[m.Name]
			if bi == nil || bi.Index != i {
				return nil, c.errorf(m.Pos, "delta analysis: base info missing or misindexed for %s", m.Name)
			}
			c.info.Methods[m.Name] = bi
			continue
		}
		if err := c.checkMethod(i, m); err != nil {
			return nil, err
		}
	}
	return c.info, nil
}

// checkStable asserts the delta invariants against the base class: the
// same methods in the same order, and the base's fields as a prefix
// (the "indices are stable" contract the bytecode cache depends on).
func (c *checker) checkStable(bcls *ast.Class) error {
	cls := c.prog.Class
	if len(cls.Methods) != len(bcls.Methods) {
		return c.errorf(cls.Pos, "delta analysis: method count changed (%d -> %d)", len(bcls.Methods), len(cls.Methods))
	}
	for i, m := range cls.Methods {
		if bcls.Methods[i].Name != m.Name {
			return c.errorf(m.Pos, "delta analysis: method %d renamed (%s -> %s)", i, bcls.Methods[i].Name, m.Name)
		}
	}
	if len(cls.Fields) < len(bcls.Fields) {
		return c.errorf(cls.Pos, "delta analysis: fields removed (%d -> %d)", len(bcls.Fields), len(cls.Fields))
	}
	for i, bf := range bcls.Fields {
		f := cls.Fields[i]
		if f.Name != bf.Name || !f.Type.Equal(bf.Type) {
			return c.errorf(f.Pos, "delta analysis: field %d changed (%s %s -> %s %s)", i, bf.Type, bf.Name, f.Type, f.Name)
		}
	}
	return nil
}

func (c *checker) checkMethod(index int, m *ast.Method) error {
	c.method = m
	c.minfo = &MethodInfo{Index: index}
	c.info.Methods[m.Name] = c.minfo
	c.locals, c.marks = c.locals[:0], c.marks[:0]
	c.loops, c.switches = 0, 0

	for _, p := range m.Params {
		if _, err := c.declare(p.Pos, p.Name, p.Type); err != nil {
			return err
		}
	}
	if err := c.block(m.Body, false); err != nil {
		return err
	}
	if m.Ret.Kind != ast.KindVoid && stmtCompletesNormally(m.Body) {
		return c.errorf(m.Pos, "method %s: missing return statement", m.Name)
	}
	return nil
}

// localEnt is one visible local in the flat scope chain.
type localEnt struct {
	name string
	slot int
}

// declare adds a local to the current scope and returns its slot.
func (c *checker) declare(pos ast.Pos, name string, t ast.Type) (int, error) {
	for i := range c.locals {
		if c.locals[i].name == name {
			return 0, c.errorf(pos, "variable %s redeclared", name)
		}
	}
	slot := len(c.minfo.Locals)
	c.minfo.Locals = append(c.minfo.Locals, t)
	c.locals = append(c.locals, localEnt{name, slot})
	return slot, nil
}

// lookup resolves a name to (local slot) or (field index).
func (c *checker) lookup(id *ast.Ident) (ast.Type, error) {
	for i := len(c.locals) - 1; i >= 0; i-- {
		if c.locals[i].name == id.Name {
			id.Ref, id.Index = ast.RefLocal, c.locals[i].slot
			return c.minfo.Locals[c.locals[i].slot], nil
		}
	}
	if fi, ok := c.fields[id.Name]; ok {
		id.Ref, id.Index = ast.RefField, fi
		return c.prog.Class.Fields[fi].Type, nil
	}
	return ast.TypeInvalid, c.errorf(id.Pos, "undefined name %s", id.Name)
}

func (c *checker) pushScope() { c.marks = append(c.marks, len(c.locals)) }
func (c *checker) popScope() {
	n := c.marks[len(c.marks)-1]
	c.marks = c.marks[:len(c.marks)-1]
	c.locals = c.locals[:n]
}

// block checks a block; ownScope is false for method bodies (params
// share the scope).
func (c *checker) block(b *ast.Block, ownScope bool) error {
	if ownScope {
		c.pushScope()
		defer c.popScope()
	}
	for _, s := range b.Stmts {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) stmt(s ast.Stmt) error {
	switch s := s.(type) {
	case *ast.Block:
		return c.block(s, true)
	case *ast.DeclStmt:
		if s.Type.Kind == ast.KindVoid {
			return c.errorf(s.Pos, "variable %s cannot have type void", s.Name)
		}
		if s.Init != nil {
			t, err := c.expr(s.Init)
			if err != nil {
				return err
			}
			if !assignable(s.Type, t) {
				return c.errorf(s.Pos, "cannot assign %s to %s %s", t, s.Type, s.Name)
			}
		} else if s.Type.IsArray() {
			return c.errorf(s.Pos, "array variable %s must be initialized", s.Name)
		}
		slot, err := c.declare(s.Pos, s.Name, s.Type)
		if err != nil {
			return err
		}
		s.Slot = slot
		return nil
	case *ast.AssignStmt:
		return c.assign(s)
	case *ast.IfStmt:
		if err := c.condExpr(s.Cond); err != nil {
			return err
		}
		if err := c.block(s.Then, true); err != nil {
			return err
		}
		if s.Else != nil {
			return c.stmt(s.Else)
		}
		return nil
	case *ast.ForStmt:
		c.pushScope()
		defer c.popScope()
		if s.Init != nil {
			if err := c.stmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			if err := c.condExpr(s.Cond); err != nil {
				return err
			}
		}
		if s.Post != nil {
			if err := c.stmt(s.Post); err != nil {
				return err
			}
		}
		c.loops++
		err := c.block(s.Body, true)
		c.loops--
		return err
	case *ast.WhileStmt:
		if err := c.condExpr(s.Cond); err != nil {
			return err
		}
		c.loops++
		err := c.block(s.Body, true)
		c.loops--
		return err
	case *ast.SwitchStmt:
		t, err := c.expr(s.Tag)
		if err != nil {
			return err
		}
		if t.Kind != ast.KindInt {
			return c.errorf(s.Pos, "switch tag must be int, have %s", t)
		}
		seen := map[int64]bool{}
		c.switches++
		defer func() { c.switches-- }()
		for _, arm := range s.Cases {
			for _, v := range arm.Values {
				if v != int64(int32(v)) {
					return c.errorf(arm.Pos, "case label %d out of int range", v)
				}
				if seen[v] {
					return c.errorf(arm.Pos, "duplicate case label %d", v)
				}
				seen[v] = true
			}
			c.pushScope()
			for _, bs := range arm.Body {
				if err := c.stmt(bs); err != nil {
					c.popScope()
					return err
				}
			}
			c.popScope()
		}
		return nil
	case *ast.BreakStmt:
		if c.loops == 0 && c.switches == 0 {
			return c.errorf(s.Pos, "break outside loop or switch")
		}
		return nil
	case *ast.ContinueStmt:
		if c.loops == 0 {
			return c.errorf(s.Pos, "continue outside loop")
		}
		return nil
	case *ast.ReturnStmt:
		ret := c.method.Ret
		if s.Value == nil {
			if ret.Kind != ast.KindVoid {
				return c.errorf(s.Pos, "return without value in %s method", ret)
			}
			return nil
		}
		if ret.Kind == ast.KindVoid {
			return c.errorf(s.Pos, "void method returns a value")
		}
		t, err := c.expr(s.Value)
		if err != nil {
			return err
		}
		if !assignable(ret, t) {
			return c.errorf(s.Pos, "cannot return %s from %s method", t, ret)
		}
		return nil
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return c.errorf(s.Pos, "expression statement must be a call")
		}
		_, err := c.expr(call)
		return err
	case *ast.PrintStmt:
		t, err := c.expr(s.X)
		if err != nil {
			return err
		}
		if t.IsArray() || t.Kind == ast.KindVoid {
			return c.errorf(s.Pos, "cannot print value of type %s", t)
		}
		return nil
	}
	return c.errorf(s.Position(), "sem: unknown statement %T", s)
}

func (c *checker) assign(s *ast.AssignStmt) error {
	tt, err := c.lvalue(s.Target)
	if err != nil {
		return err
	}
	vt, err := c.expr(s.Value)
	if err != nil {
		return err
	}
	if s.Op == ast.AsnSet {
		if !assignable(tt, vt) {
			return c.errorf(s.Pos, "cannot assign %s to %s", vt, tt)
		}
		return nil
	}
	// Compound assignment: Java implicitly narrows the result back to
	// the target type, so "i += longVal" is legal for int i.
	op := s.Op.BinOp()
	switch {
	case op.IsShift():
		if !tt.IsNumeric() || !vt.IsNumeric() {
			return c.errorf(s.Pos, "operator %s needs numeric operands", s.Op)
		}
	case op == ast.OpAnd || op == ast.OpOr || op == ast.OpXor:
		if tt.Kind == ast.KindBoolean && vt.Kind == ast.KindBoolean {
			return nil
		}
		if !tt.IsNumeric() || !vt.IsNumeric() {
			return c.errorf(s.Pos, "operator %s needs numeric or boolean operands", s.Op)
		}
	default:
		if !tt.IsNumeric() || !vt.IsNumeric() {
			return c.errorf(s.Pos, "operator %s needs numeric operands", s.Op)
		}
	}
	return nil
}

// lvalue checks an assignment target and returns its type.
func (c *checker) lvalue(e ast.Expr) (ast.Type, error) {
	switch e := e.(type) {
	case *ast.Ident:
		t, err := c.lookup(e)
		if err != nil {
			return ast.TypeInvalid, err
		}
		e.SetType(t)
		return t, nil
	case *ast.IndexExpr:
		return c.expr(e)
	}
	return ast.TypeInvalid, c.errorf(e.Position(), "invalid assignment target")
}

// condExpr checks that e is boolean.
func (c *checker) condExpr(e ast.Expr) error {
	t, err := c.expr(e)
	if err != nil {
		return err
	}
	if t.Kind != ast.KindBoolean {
		return c.errorf(e.Position(), "condition must be boolean, have %s", t)
	}
	return nil
}

// assignable reports whether a value of type 'from' may be assigned to
// a target of type 'to' (identity or int->long widening).
func assignable(to, from ast.Type) bool {
	if to.Equal(from) {
		return true
	}
	return to.Kind == ast.KindLong && from.Kind == ast.KindInt
}

// promote returns the Java binary numeric promotion of two numeric
// types.
func promote(a, b ast.Type) ast.Type {
	if a.Kind == ast.KindLong || b.Kind == ast.KindLong {
		return ast.TypeLong
	}
	return ast.TypeInt
}

func (c *checker) expr(e ast.Expr) (ast.Type, error) {
	t, err := c.exprNoSet(e)
	if err != nil {
		return ast.TypeInvalid, err
	}
	e.SetType(t)
	return t, nil
}

func (c *checker) exprNoSet(e ast.Expr) (ast.Type, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		if e.IsLong {
			return ast.TypeLong, nil
		}
		return ast.TypeInt, nil
	case *ast.BoolLit:
		return ast.TypeBoolean, nil
	case *ast.Ident:
		return c.lookup(e)
	case *ast.IndexExpr:
		at, err := c.expr(e.Arr)
		if err != nil {
			return ast.TypeInvalid, err
		}
		if !at.IsArray() {
			return ast.TypeInvalid, c.errorf(e.Pos, "indexing non-array type %s", at)
		}
		it, err := c.expr(e.Index)
		if err != nil {
			return ast.TypeInvalid, err
		}
		if it.Kind != ast.KindInt {
			return ast.TypeInvalid, c.errorf(e.Pos, "array index must be int, have %s", it)
		}
		return at.ElemType(), nil
	case *ast.LenExpr:
		at, err := c.expr(e.Arr)
		if err != nil {
			return ast.TypeInvalid, err
		}
		if !at.IsArray() {
			return ast.TypeInvalid, c.errorf(e.Pos, ".length on non-array type %s", at)
		}
		return ast.TypeInt, nil
	case *ast.CallExpr:
		mi, ok := c.methods[e.Name]
		if !ok {
			return ast.TypeInvalid, c.errorf(e.Pos, "undefined method %s", e.Name)
		}
		if c.method == nil {
			return ast.TypeInvalid, c.errorf(e.Pos, "method call not allowed here")
		}
		m := c.prog.Class.Methods[mi]
		if len(e.Args) != len(m.Params) {
			return ast.TypeInvalid, c.errorf(e.Pos, "method %s takes %d arguments, got %d", e.Name, len(m.Params), len(e.Args))
		}
		for i, a := range e.Args {
			at, err := c.expr(a)
			if err != nil {
				return ast.TypeInvalid, err
			}
			if !assignable(m.Params[i].Type, at) {
				return ast.TypeInvalid, c.errorf(e.Pos, "argument %d of %s: cannot pass %s as %s", i+1, e.Name, at, m.Params[i].Type)
			}
		}
		e.MethodIndex = mi
		return m.Ret, nil
	case *ast.UnaryExpr:
		xt, err := c.expr(e.X)
		if err != nil {
			return ast.TypeInvalid, err
		}
		switch e.Op {
		case ast.OpNeg, ast.OpBitNot:
			if !xt.IsNumeric() {
				return ast.TypeInvalid, c.errorf(e.Pos, "operator %s needs a numeric operand, have %s", e.Op, xt)
			}
			return xt, nil
		case ast.OpNot:
			if xt.Kind != ast.KindBoolean {
				return ast.TypeInvalid, c.errorf(e.Pos, "operator ! needs a boolean operand, have %s", xt)
			}
			return ast.TypeBoolean, nil
		}
		return ast.TypeInvalid, c.errorf(e.Pos, "sem: unknown unary op")
	case *ast.BinaryExpr:
		xt, err := c.expr(e.X)
		if err != nil {
			return ast.TypeInvalid, err
		}
		yt, err := c.expr(e.Y)
		if err != nil {
			return ast.TypeInvalid, err
		}
		op := e.Op
		switch {
		case op.IsLogical():
			if xt.Kind != ast.KindBoolean || yt.Kind != ast.KindBoolean {
				return ast.TypeInvalid, c.errorf(e.Pos, "operator %s needs boolean operands", op)
			}
			return ast.TypeBoolean, nil
		case op == ast.OpEq || op == ast.OpNe:
			if xt.IsNumeric() && yt.IsNumeric() {
				return ast.TypeBoolean, nil
			}
			if xt.Kind == ast.KindBoolean && yt.Kind == ast.KindBoolean {
				return ast.TypeBoolean, nil
			}
			return ast.TypeInvalid, c.errorf(e.Pos, "cannot compare %s and %s", xt, yt)
		case op.IsComparison():
			if !xt.IsNumeric() || !yt.IsNumeric() {
				return ast.TypeInvalid, c.errorf(e.Pos, "operator %s needs numeric operands", op)
			}
			return ast.TypeBoolean, nil
		case op.IsShift():
			if !xt.IsNumeric() || !yt.IsNumeric() {
				return ast.TypeInvalid, c.errorf(e.Pos, "operator %s needs numeric operands", op)
			}
			return xt, nil // shift result width follows the left operand
		case op == ast.OpAnd || op == ast.OpOr || op == ast.OpXor:
			if xt.Kind == ast.KindBoolean && yt.Kind == ast.KindBoolean {
				return ast.TypeBoolean, nil
			}
			if !xt.IsNumeric() || !yt.IsNumeric() {
				return ast.TypeInvalid, c.errorf(e.Pos, "operator %s needs numeric or boolean operands", op)
			}
			return promote(xt, yt), nil
		default:
			if !xt.IsNumeric() || !yt.IsNumeric() {
				return ast.TypeInvalid, c.errorf(e.Pos, "operator %s needs numeric operands", op)
			}
			return promote(xt, yt), nil
		}
	case *ast.CondExpr:
		if err := c.condExpr(e.Cond); err != nil {
			return ast.TypeInvalid, err
		}
		tt, err := c.expr(e.Then)
		if err != nil {
			return ast.TypeInvalid, err
		}
		et, err := c.expr(e.Else)
		if err != nil {
			return ast.TypeInvalid, err
		}
		switch {
		case tt.Equal(et):
			return tt, nil
		case tt.IsNumeric() && et.IsNumeric():
			return promote(tt, et), nil
		}
		return ast.TypeInvalid, c.errorf(e.Pos, "ternary branches have incompatible types %s and %s", tt, et)
	case *ast.NewArrayExpr:
		if e.Elem != ast.KindInt && e.Elem != ast.KindLong && e.Elem != ast.KindBoolean {
			return ast.TypeInvalid, c.errorf(e.Pos, "bad array element type")
		}
		if e.Elems != nil {
			want := ast.Type{Kind: e.Elem}
			for _, el := range e.Elems {
				et, err := c.expr(el)
				if err != nil {
					return ast.TypeInvalid, err
				}
				if !assignable(want, et) {
					return ast.TypeInvalid, c.errorf(e.Pos, "array element of type %s in %s array", et, want)
				}
			}
		} else {
			lt, err := c.expr(e.Len)
			if err != nil {
				return ast.TypeInvalid, err
			}
			if lt.Kind != ast.KindInt {
				return ast.TypeInvalid, c.errorf(e.Pos, "array length must be int, have %s", lt)
			}
		}
		return ast.ArrayOf(e.Elem), nil
	case *ast.CastExpr:
		xt, err := c.expr(e.X)
		if err != nil {
			return ast.TypeInvalid, err
		}
		if !xt.IsNumeric() || !e.To.IsNumeric() {
			return ast.TypeInvalid, c.errorf(e.Pos, "cannot cast %s to %s", xt, e.To)
		}
		return e.To, nil
	}
	return ast.TypeInvalid, c.errorf(e.Position(), "sem: unknown expression %T", e)
}

// ---------------------------------------------------------------------------
// Reachability ("may complete normally"), a simplified JLS 14.22.
// ---------------------------------------------------------------------------

// stmtCompletesNormally conservatively reports whether execution can
// fall off the end of s.
func stmtCompletesNormally(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.Block:
		for _, bs := range s.Stmts {
			if !stmtCompletesNormally(bs) {
				return false
			}
		}
		return true
	case *ast.ReturnStmt:
		return false
	case *ast.IfStmt:
		if s.Else == nil {
			return true
		}
		return stmtCompletesNormally(s.Then) || stmtCompletesNormally(s.Else)
	case *ast.ForStmt:
		if s.Cond == nil && !hasBreak(s.Body) {
			return false
		}
		return true
	case *ast.WhileStmt:
		if lit, ok := s.Cond.(*ast.BoolLit); ok && lit.Value && !hasBreak(s.Body) {
			return false
		}
		return true
	default:
		return true
	}
}

// hasBreak reports whether b contains a break that would exit the loop
// directly enclosing b (i.e. not one captured by a nested loop/switch).
func hasBreak(b *ast.Block) bool {
	for _, s := range b.Stmts {
		if stmtHasLoopBreak(s) {
			return true
		}
	}
	return false
}

func stmtHasLoopBreak(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BreakStmt:
		return true
	case *ast.Block:
		return hasBreak(s)
	case *ast.IfStmt:
		if hasBreak(s.Then) {
			return true
		}
		if s.Else != nil {
			return stmtHasLoopBreak(s.Else)
		}
		return false
	default:
		// Breaks inside nested loops/switches bind to those, not to
		// the enclosing loop.
		return false
	}
}
