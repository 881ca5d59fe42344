// Package fuzz generates random MJ seed programs, playing the role
// JavaFuzzer plays in the paper's evaluation (Section 4.1): programs
// that are structurally rich (nested control flow, switches, arrays,
// fields, helper methods) but deliberately avoid lengthy loops, so
// they rarely reach JIT compilation thresholds by themselves — the
// compilation space must be opened up by JoNM mutations.
//
// Every generated program is semantically valid (checked against
// sem.Analyze) and terminates: loops have small constant bounds,
// loop counters are never reassigned, and the call graph is acyclic.
package fuzz

import (
	"fmt"
	"math/rand"

	"artemis/internal/lang/ast"
	"artemis/internal/lang/sem"
)

// Options tunes generation.
type Options struct {
	// Seed drives the deterministic RNG.
	Seed int64
	// StmtBudget bounds total generated statements (default 90).
	StmtBudget int
}

const (
	// maxMethods bounds helper methods.
	maxMethods = 5
	// printProb is the probability of a print statement inside
	// bodies. main always prints a field/array summary.
	printProb = 0.08
	// rawDivProb is the probability a division is left unguarded and
	// may throw ArithmeticException.
	rawDivProb = 0.02
)

func (o Options) withDefaults() Options {
	if o.StmtBudget == 0 {
		o.StmtBudget = 90
	}
	return o
}

// Generate produces a random valid program.
func Generate(opts Options) *ast.Program {
	opts = opts.withDefaults()
	g := &gen{
		rng:  rand.New(rand.NewSource(opts.Seed)),
		opts: opts,
	}
	p := g.program()
	if _, err := sem.Analyze(p); err != nil {
		// A generator defect, not a user error: fail loudly with the
		// program for diagnosis.
		panic(fmt.Sprintf("fuzz: generated invalid program (seed %d): %v\n%s", opts.Seed, err, ast.Print(p)))
	}
	return p
}

type localVar struct {
	name      string
	typ       ast.Type
	protected bool // loop counters: never assigned
}

type gen struct {
	rng  *rand.Rand
	opts Options

	fields  []*ast.Field
	sigs    []*ast.Method // signatures, index = callable target
	counter int
	budget  int

	// Scope state while generating one method.
	locals    []localVar
	scopeMark []int
	method    *ast.Method
	methodIdx int
	loopKinds []byte // 'f' = for (continue ok), 'w' = while (no continue)
}

func (g *gen) fresh(prefix string) string {
	g.counter++
	return fmt.Sprintf("%s%d", prefix, g.counter)
}

func (g *gen) chance(p float64) bool { return g.rng.Float64() < p }

func (g *gen) pick(n int) int { return g.rng.Intn(n) }

// scalarType picks int (often), long, or boolean.
func (g *gen) scalarType() ast.Type {
	switch g.pick(10) {
	case 0, 1, 2, 3, 4, 5:
		return ast.TypeInt
	case 6, 7:
		return ast.TypeLong
	default:
		return ast.TypeBoolean
	}
}

func (g *gen) program() *ast.Program {
	cls := &ast.Class{Name: "T"}
	g.budget = g.opts.StmtBudget

	// Fields.
	nScalar := 3 + g.pick(4)
	for i := 0; i < nScalar; i++ {
		t := g.scalarType()
		f := &ast.Field{Type: t, Name: g.fresh("f"), Init: g.literal(t)}
		g.fields = append(g.fields, f)
	}
	nArr := 1 + g.pick(2)
	for i := 0; i < nArr; i++ {
		elem := ast.KindInt
		if g.chance(0.3) {
			elem = ast.KindLong
		}
		n := 3 + g.pick(6)
		lit := &ast.NewArrayExpr{Elem: elem, Elems: []ast.Expr{}}
		for j := 0; j < n; j++ {
			lit.Elems = append(lit.Elems, g.literal(ast.Type{Kind: elem}))
		}
		f := &ast.Field{Type: ast.ArrayOf(elem), Name: g.fresh("arr"), Init: lit}
		g.fields = append(g.fields, f)
	}
	cls.Fields = g.fields

	// Method signatures first (calls may only target lower indices,
	// keeping the call graph acyclic).
	nMethods := 2 + g.pick(maxMethods-1)
	for i := 0; i < nMethods; i++ {
		var ret ast.Type
		switch g.pick(5) {
		case 0:
			ret = ast.TypeVoid
		case 1:
			ret = ast.TypeLong
		case 2:
			ret = ast.TypeBoolean
		default:
			ret = ast.TypeInt
		}
		m := &ast.Method{Ret: ret, Name: g.fresh("m")}
		nParams := g.pick(4)
		for j := 0; j < nParams; j++ {
			m.Params = append(m.Params, &ast.Param{Type: g.scalarType(), Name: g.fresh("p")})
		}
		g.sigs = append(g.sigs, m)
	}

	// Bodies.
	for i, m := range g.sigs {
		g.startMethod(m, i)
		m.Body = g.block(2 + g.pick(3))
		if m.Ret.Kind != ast.KindVoid {
			m.Body.Stmts = append(m.Body.Stmts, &ast.ReturnStmt{Value: g.expr(m.Ret, 2)})
		}
		cls.Methods = append(cls.Methods, m)
	}

	// main: drive the helpers, then print a summary of every field.
	main := &ast.Method{Ret: ast.TypeVoid, Name: "main"}
	g.startMethod(main, len(g.sigs))
	body := &ast.Block{}
	nCalls := 2 + g.pick(4)
	for i := 0; i < nCalls; i++ {
		mi := g.pick(len(g.sigs))
		body.Stmts = append(body.Stmts, g.callStmt(mi))
	}
	// Occasionally some extra logic in main too.
	g.budget = 10
	extra := g.block(2)
	body.Stmts = append(body.Stmts, extra.Stmts...)
	// Field summary.
	for _, f := range g.fields {
		if !f.Type.IsArray() {
			body.Stmts = append(body.Stmts, &ast.PrintStmt{X: &ast.Ident{Name: f.Name}})
			continue
		}
		sumT := ast.TypeLong
		sum := g.fresh("sum")
		idx := g.fresh("i")
		body.Stmts = append(body.Stmts,
			&ast.DeclStmt{Type: sumT, Name: sum, Init: &ast.IntLit{Value: 0, IsLong: true}},
			&ast.ForStmt{
				Init: &ast.DeclStmt{Type: ast.TypeInt, Name: idx, Init: &ast.IntLit{Value: 0}},
				Cond: &ast.BinaryExpr{Op: ast.OpLt, X: &ast.Ident{Name: idx}, Y: &ast.LenExpr{Arr: &ast.Ident{Name: f.Name}}},
				Post: &ast.AssignStmt{Target: &ast.Ident{Name: idx}, Op: ast.AsnAdd, Value: &ast.IntLit{Value: 1}},
				Body: &ast.Block{Stmts: []ast.Stmt{
					&ast.AssignStmt{Target: &ast.Ident{Name: sum}, Op: ast.AsnAdd,
						Value: &ast.IndexExpr{Arr: &ast.Ident{Name: f.Name}, Index: &ast.Ident{Name: idx}}},
				}},
			},
			&ast.PrintStmt{X: &ast.Ident{Name: sum}},
		)
	}
	main.Body = body
	cls.Methods = append(cls.Methods, main)

	return &ast.Program{Class: cls}
}

func (g *gen) startMethod(m *ast.Method, idx int) {
	g.method = m
	g.methodIdx = idx
	g.locals = g.locals[:0]
	g.scopeMark = g.scopeMark[:0]
	g.loopKinds = g.loopKinds[:0]
	for _, p := range m.Params {
		g.locals = append(g.locals, localVar{name: p.Name, typ: p.Type})
	}
}

func (g *gen) pushScope() { g.scopeMark = append(g.scopeMark, len(g.locals)) }
func (g *gen) popScope() {
	n := g.scopeMark[len(g.scopeMark)-1]
	g.scopeMark = g.scopeMark[:len(g.scopeMark)-1]
	g.locals = g.locals[:n]
}

// block generates a braced block with roughly want statements.
func (g *gen) block(want int) *ast.Block {
	g.pushScope()
	defer g.popScope()
	b := &ast.Block{}
	for i := 0; i < want && g.budget > 0; i++ {
		b.Stmts = append(b.Stmts, g.stmt())
	}
	return b
}

func (g *gen) stmt() ast.Stmt {
	g.budget--
	switch g.pick(20) {
	case 0, 1, 2:
		return g.declStmt()
	case 3, 4, 5, 6, 7:
		return g.assignStmt()
	case 8, 9:
		return g.ifStmt()
	case 10, 11:
		return g.forStmt()
	case 12:
		return g.whileStmt()
	case 13:
		return g.switchStmt()
	case 14, 15:
		if len(g.callables()) > 0 {
			return g.callStmt(g.callables()[g.pick(len(g.callables()))])
		}
		return g.assignStmt()
	case 16:
		if g.chance(printProb * 5) {
			t := g.scalarType()
			return &ast.PrintStmt{X: g.expr(t, 2)}
		}
		return g.assignStmt()
	case 17:
		if len(g.loopKinds) > 0 && g.chance(0.5) {
			return &ast.BreakStmt{}
		}
		return g.assignStmt()
	case 18:
		// continue is only safe in for loops (the post-clause still
		// advances the counter).
		if n := len(g.loopKinds); n > 0 && g.loopKinds[n-1] == 'f' && g.chance(0.4) {
			return &ast.ContinueStmt{}
		}
		return g.assignStmt()
	case 19:
		if s := g.arrayWalk(); s != nil {
			return s
		}
		return g.assignStmt()
	default:
		return g.assignStmt()
	}
}

func (g *gen) declStmt() ast.Stmt {
	if g.chance(0.2) {
		// Array local.
		elem := ast.KindInt
		if g.chance(0.3) {
			elem = ast.KindLong
		}
		name := g.fresh("la")
		var init ast.Expr
		if g.chance(0.5) {
			n := 2 + g.pick(5)
			lit := &ast.NewArrayExpr{Elem: elem, Elems: []ast.Expr{}}
			for j := 0; j < n; j++ {
				lit.Elems = append(lit.Elems, g.literal(ast.Type{Kind: elem}))
			}
			init = lit
		} else if arr := g.arrayVar(elem); arr != nil && g.chance(0.4) {
			init = arr
		} else {
			n := int64(1 + g.pick(8))
			if g.chance(0.25) {
				n = 8 // GC-barrier-friendly alignment shows up in real heaps too
				if g.chance(0.3) {
					n = 16
				}
			}
			init = &ast.NewArrayExpr{Elem: elem, Len: &ast.IntLit{Value: n}}
		}
		g.locals = append(g.locals, localVar{name: name, typ: ast.ArrayOf(elem)})
		return &ast.DeclStmt{Type: ast.ArrayOf(elem), Name: name, Init: init}
	}
	t := g.scalarType()
	name := g.fresh("v")
	d := &ast.DeclStmt{Type: t, Name: name, Init: g.expr(t, 2)}
	g.locals = append(g.locals, localVar{name: name, typ: t})
	return d
}

// assignableTargets lists in-scope writable scalar variables/fields.
func (g *gen) assignStmt() ast.Stmt {
	type target struct {
		expr ast.Expr
		typ  ast.Type
	}
	var targets []target
	for _, lv := range g.locals {
		if !lv.protected && !lv.typ.IsArray() {
			targets = append(targets, target{&ast.Ident{Name: lv.name}, lv.typ})
		}
	}
	for _, f := range g.fields {
		if !f.Type.IsArray() {
			targets = append(targets, target{&ast.Ident{Name: f.Name}, f.Type})
		}
	}
	// Array element targets.
	for _, elem := range []ast.Kind{ast.KindInt, ast.KindLong} {
		if arr := g.arrayVar(elem); arr != nil {
			idx := g.guardedIndex(arr)
			targets = append(targets, target{
				&ast.IndexExpr{Arr: arr, Index: idx}, ast.Type{Kind: elem}})
		}
	}
	if len(targets) == 0 {
		t := g.scalarType()
		name := g.fresh("v")
		g.locals = append(g.locals, localVar{name: name, typ: t})
		return &ast.DeclStmt{Type: t, Name: name, Init: g.expr(t, 2)}
	}
	tg := targets[g.pick(len(targets))]
	if tg.typ.Kind == ast.KindBoolean {
		ops := []ast.AssignOp{ast.AsnSet, ast.AsnAnd, ast.AsnOr, ast.AsnXor}
		return &ast.AssignStmt{Target: tg.expr, Op: ops[g.pick(len(ops))], Value: g.expr(ast.TypeBoolean, 2)}
	}
	ops := []ast.AssignOp{ast.AsnSet, ast.AsnSet, ast.AsnAdd, ast.AsnSub, ast.AsnMul,
		ast.AsnAnd, ast.AsnOr, ast.AsnXor, ast.AsnShl, ast.AsnShr, ast.AsnUshr}
	op := ops[g.pick(len(ops))]
	var val ast.Expr
	if op == ast.AsnSet {
		val = g.expr(tg.typ, 2+g.pick(2))
	} else if op == ast.AsnShl || op == ast.AsnShr || op == ast.AsnUshr {
		val = &ast.IntLit{Value: int64(1 + g.pick(8))}
	} else {
		val = g.expr(tg.typ, 2)
	}
	return &ast.AssignStmt{Target: tg.expr, Op: op, Value: val}
}

func (g *gen) ifStmt() ast.Stmt {
	s := &ast.IfStmt{Cond: g.expr(ast.TypeBoolean, 2), Then: g.block(1 + g.pick(3))}
	if g.chance(0.5) {
		s.Else = g.block(1 + g.pick(2))
	}
	return s
}

// forStmt generates a bounded counted loop; the counter is protected
// from reassignment so termination is guaranteed.
func (g *gen) forStmt() ast.Stmt {
	g.pushScope()
	defer g.popScope()
	name := g.fresh("i")
	bound := int64(2 + g.pick(14))
	g.locals = append(g.locals, localVar{name: name, typ: ast.TypeInt, protected: true})
	g.loopKinds = append(g.loopKinds, 'f')
	body := g.block(1 + g.pick(3))
	g.loopKinds = g.loopKinds[:len(g.loopKinds)-1]
	return &ast.ForStmt{
		Init: &ast.DeclStmt{Type: ast.TypeInt, Name: name, Init: &ast.IntLit{Value: 0}},
		Cond: &ast.BinaryExpr{Op: ast.OpLt, X: &ast.Ident{Name: name}, Y: &ast.IntLit{Value: bound}},
		Post: &ast.AssignStmt{Target: &ast.Ident{Name: name}, Op: ast.AsnAdd, Value: &ast.IntLit{Value: 1}},
		Body: body,
	}
}

func (g *gen) whileStmt() ast.Stmt {
	g.pushScope()
	defer g.popScope()
	name := g.fresh("w")
	bound := int64(2 + g.pick(10))
	g.locals = append(g.locals, localVar{name: name, typ: ast.TypeInt, protected: true})
	g.loopKinds = append(g.loopKinds, 'w')
	body := g.block(1 + g.pick(2))
	g.loopKinds = g.loopKinds[:len(g.loopKinds)-1]
	// The counter increment is the first statement, so break cannot
	// skip it forever (bounded iterations regardless of body shape).
	body.Stmts = append([]ast.Stmt{
		&ast.AssignStmt{Target: &ast.Ident{Name: name}, Op: ast.AsnAdd, Value: &ast.IntLit{Value: 1}},
	}, body.Stmts...)
	decl := &ast.DeclStmt{Type: ast.TypeInt, Name: name, Init: &ast.IntLit{Value: 0}}
	loop := &ast.WhileStmt{
		Cond: &ast.BinaryExpr{Op: ast.OpLt, X: &ast.Ident{Name: name}, Y: &ast.IntLit{Value: bound}},
		Body: body,
	}
	return &ast.Block{Stmts: []ast.Stmt{decl, loop}}
}

func (g *gen) switchStmt() ast.Stmt {
	s := &ast.SwitchStmt{Tag: g.expr(ast.TypeInt, 2)}
	n := 2 + g.pick(4)
	used := map[int64]bool{}
	g.loopKinds = append(g.loopKinds, 'w') // breaks inside bind to the switch
	for i := 0; i < n; i++ {
		v := int64(g.rng.Intn(40) - 10)
		for used[v] {
			v++
		}
		used[v] = true
		arm := &ast.SwitchCase{Values: []int64{v}}
		nb := 1 + g.pick(2)
		blk := g.block(nb)
		arm.Body = blk.Stmts
		if !g.chance(0.25) { // mostly break, sometimes fall through
			arm.Body = append(arm.Body, &ast.BreakStmt{})
		}
		s.Cases = append(s.Cases, arm)
	}
	if g.chance(0.7) {
		blk := g.block(1)
		s.Cases = append(s.Cases, &ast.SwitchCase{Values: nil, Body: append(blk.Stmts, &ast.BreakStmt{})})
	}
	g.loopKinds = g.loopKinds[:len(g.loopKinds)-1]
	return s
}

// arrayWalk emits a canonical counted loop over an in-scope array
// with direct (unguarded) element accesses — the shape bounds-check
// elimination recognizes. Rarely the bound is inclusive
// ("i <= a.length"), which a correct VM answers with an
// ArrayIndexOutOfBoundsException; real fuzzed Java corpora contain
// such latent OOB loops too, and they are exactly the bait for
// off-by-one BCE defects.
func (g *gen) arrayWalk() ast.Stmt {
	elem := ast.KindInt
	if g.chance(0.3) {
		elem = ast.KindLong
	}
	arr := g.arrayVar(elem)
	if arr == nil {
		return nil
	}
	idx := g.fresh("i")
	g.pushScope()
	g.locals = append(g.locals, localVar{name: idx, typ: ast.TypeInt, protected: true})
	op := ast.OpLt
	if g.chance(0.12) {
		op = ast.OpLe // latent off-by-one: traps at i == length
	}
	var body []ast.Stmt
	if g.chance(0.6) {
		body = append(body, &ast.AssignStmt{
			Target: &ast.IndexExpr{Arr: ast.CloneExpr(arr), Index: &ast.Ident{Name: idx}},
			Op:     ast.AsnSet,
			Value:  g.expr(ast.Type{Kind: elem}, 1),
		})
	} else {
		target := g.varOf(ast.Type{Kind: elem})
		if target == nil {
			g.popScope()
			return nil
		}
		body = append(body, &ast.AssignStmt{
			Target: target,
			Op:     ast.AsnAdd,
			Value:  &ast.IndexExpr{Arr: ast.CloneExpr(arr), Index: &ast.Ident{Name: idx}},
		})
	}
	g.popScope()
	return &ast.ForStmt{
		Init: &ast.DeclStmt{Type: ast.TypeInt, Name: idx, Init: &ast.IntLit{Value: 0}},
		Cond: &ast.BinaryExpr{Op: op, X: &ast.Ident{Name: idx}, Y: &ast.LenExpr{Arr: ast.CloneExpr(arr)}},
		Post: &ast.AssignStmt{Target: &ast.Ident{Name: idx}, Op: ast.AsnAdd, Value: &ast.IntLit{Value: 1}},
		Body: &ast.Block{Stmts: body},
	}
}

// callables returns method indices this method may call (strictly
// lower indices, keeping the call graph acyclic).
func (g *gen) callables() []int {
	out := make([]int, 0, g.methodIdx)
	for i := 0; i < g.methodIdx && i < len(g.sigs); i++ {
		out = append(out, i)
	}
	return out
}

func (g *gen) callExpr(mi int) *ast.CallExpr {
	m := g.sigs[mi]
	call := &ast.CallExpr{Name: m.Name}
	for _, p := range m.Params {
		call.Args = append(call.Args, g.expr(p.Type, 1))
	}
	return call
}

func (g *gen) callStmt(mi int) ast.Stmt {
	call := g.callExpr(mi)
	if g.sigs[mi].Ret.Kind == ast.KindVoid {
		return &ast.ExprStmt{X: call}
	}
	name := g.fresh("r")
	g.locals = append(g.locals, localVar{name: name, typ: g.sigs[mi].Ret})
	return &ast.DeclStmt{Type: g.sigs[mi].Ret, Name: name, Init: call}
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

func (g *gen) literal(t ast.Type) ast.Expr {
	switch t.Kind {
	case ast.KindBoolean:
		return &ast.BoolLit{Value: g.chance(0.5)}
	case ast.KindLong:
		v := g.rng.Int63n(1 << 32)
		if g.chance(0.5) {
			v = -v
		}
		if g.chance(0.1) {
			v = g.rng.Int63() // occasionally huge
		}
		return &ast.IntLit{Value: v, IsLong: true}
	default:
		v := int64(g.rng.Intn(10000) - 3000)
		if g.chance(0.06) {
			v = int64(int32(g.rng.Uint64())) // full-range int
		}
		return &ast.IntLit{Value: v}
	}
}

// varOf returns a random in-scope variable/field of type t, or nil.
func (g *gen) varOf(t ast.Type) ast.Expr {
	var names []string
	for _, lv := range g.locals {
		if lv.typ.Equal(t) {
			names = append(names, lv.name)
		}
	}
	for _, f := range g.fields {
		if f.Type.Equal(t) {
			names = append(names, f.Name)
		}
	}
	if len(names) == 0 {
		return nil
	}
	return &ast.Ident{Name: names[g.pick(len(names))]}
}

// arrayVar returns an in-scope array variable with the element kind.
func (g *gen) arrayVar(elem ast.Kind) ast.Expr {
	t := ast.ArrayOf(elem)
	return g.varOf(t)
}

// guardedIndex builds a provably in-range index for arr (whose length
// is at least 1 by construction): (expr & 0x7fffffff) % arr.length.
func (g *gen) guardedIndex(arr ast.Expr) ast.Expr {
	e := g.expr(ast.TypeInt, 1)
	masked := &ast.BinaryExpr{Op: ast.OpAnd, X: e, Y: &ast.IntLit{Value: 0x7fffffff}}
	return &ast.BinaryExpr{Op: ast.OpRem, X: masked, Y: &ast.LenExpr{Arr: ast.CloneExpr(arr)}}
}

func (g *gen) expr(t ast.Type, depth int) ast.Expr {
	if depth <= 0 {
		if v := g.varOf(t); v != nil && g.chance(0.65) {
			return v
		}
		return g.literal(t)
	}
	switch t.Kind {
	case ast.KindBoolean:
		switch g.pick(8) {
		case 0:
			return &ast.UnaryExpr{Op: ast.OpNot, X: g.expr(ast.TypeBoolean, depth-1)}
		case 1, 2:
			op := []ast.BinOp{ast.OpLAnd, ast.OpLOr, ast.OpAnd, ast.OpOr, ast.OpXor}[g.pick(5)]
			return &ast.BinaryExpr{Op: op, X: g.expr(ast.TypeBoolean, depth-1), Y: g.expr(ast.TypeBoolean, depth-1)}
		case 3, 4, 5:
			nt := ast.TypeInt
			if g.chance(0.3) {
				nt = ast.TypeLong
			}
			op := []ast.BinOp{ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe, ast.OpEq, ast.OpNe}[g.pick(6)]
			return &ast.BinaryExpr{Op: op, X: g.expr(nt, depth-1), Y: g.expr(nt, depth-1)}
		case 6:
			if c := g.methodReturning(ast.TypeBoolean); c != nil {
				return c
			}
			fallthrough
		default:
			if v := g.varOf(ast.TypeBoolean); v != nil {
				return v
			}
			return g.literal(t)
		}
	case ast.KindInt, ast.KindLong:
		switch g.pick(12) {
		case 0, 1, 2, 3:
			return g.arith(t, depth)
		case 4:
			return &ast.UnaryExpr{Op: []ast.UnOp{ast.OpNeg, ast.OpBitNot}[g.pick(2)], X: g.expr(t, depth-1)}
		case 5:
			return &ast.CondExpr{Cond: g.expr(ast.TypeBoolean, depth-1), Then: g.expr(t, depth-1), Else: g.expr(t, depth-1)}
		case 6:
			// Cast from the other width.
			if t.Kind == ast.KindInt {
				return &ast.CastExpr{To: ast.TypeInt, X: g.expr(ast.TypeLong, depth-1)}
			}
			return &ast.CastExpr{To: ast.TypeLong, X: g.expr(ast.TypeInt, depth-1)}
		case 7:
			if arr := g.arrayVar(t.Kind); arr != nil {
				return &ast.IndexExpr{Arr: arr, Index: g.guardedIndex(arr)}
			}
			return g.arith(t, depth)
		case 8:
			if t.Kind == ast.KindInt {
				for _, elem := range []ast.Kind{ast.KindInt, ast.KindLong} {
					if arr := g.arrayVar(elem); arr != nil && g.chance(0.5) {
						return &ast.LenExpr{Arr: arr}
					}
				}
			}
			return g.arith(t, depth)
		case 9:
			if c := g.methodReturning(t); c != nil {
				return c
			}
			return g.arith(t, depth)
		default:
			if v := g.varOf(t); v != nil {
				return v
			}
			return g.literal(t)
		}
	}
	return g.literal(t)
}

// arith builds a binary arithmetic expression of type t; divisions get
// a (|1) guard on the divisor unless the rare raw-division roll hits.
func (g *gen) arith(t ast.Type, depth int) ast.Expr {
	ops := []ast.BinOp{ast.OpAdd, ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpRem,
		ast.OpAnd, ast.OpOr, ast.OpXor, ast.OpShl, ast.OpShr, ast.OpUshr}
	op := ops[g.pick(len(ops))]
	x := g.expr(t, depth-1)
	var y ast.Expr
	switch {
	case op == ast.OpDiv || op == ast.OpRem:
		y = g.expr(t, depth-1)
		if !g.chance(rawDivProb) {
			one := &ast.IntLit{Value: 1, IsLong: t.Kind == ast.KindLong}
			y = &ast.BinaryExpr{Op: ast.OpOr, X: y, Y: one}
		}
	case op.IsShift():
		y = &ast.IntLit{Value: int64(g.pick(40))}
	default:
		y = g.expr(t, depth-1)
	}
	return &ast.BinaryExpr{Op: op, X: x, Y: y}
}

// methodReturning builds a call to a callable method with return type
// t, or nil.
func (g *gen) methodReturning(t ast.Type) ast.Expr {
	var cands []int
	for _, i := range g.callables() {
		if g.sigs[i].Ret.Equal(t) {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return g.callExpr(cands[g.pick(len(cands))])
}
