package jonm

import (
	"artemis/internal/lang/ast"
)

// synth is the loop-synthesis context of Algorithm 2: it fills
// expression holes (SynExpr) and statement holes (SynStmts) and tracks
// the reused-variable set V' whose values must be backed up around the
// synthesized loop.
type synth struct {
	mc    *mutationCtx
	scope []scopeVar // V: variables available at ρ
	// written is the subset of V' that synthesized code assigns to;
	// exactly these need the backup/restore of Algorithm 2 lines 9-10.
	// (Read-only reuses need no restore — and must not get one: under
	// SW the wrapped original statement runs inside the loop, and
	// restoring a variable it wrote would undo its effect.)
	written map[string]ast.Type

	// readOnly forbids writing scope variables entirely (used for MI
	// prologues, which run on every pre-invocation and must not touch
	// pre-existing state, and for SW loop bodies, which surround the
	// wrapped original statement).
	readOnly bool

	// fresh locals declared by synthesized statements (usable as
	// write targets and operands).
	locals []scopeVar
}

func newSynth(mc *mutationCtx, scope []scopeVar) *synth {
	return &synth{mc: mc, scope: scope, written: map[string]ast.Type{}}
}

func (s *synth) rng() int              { return s.mc.rng.Int() }
func (s *synth) pick(n int) int        { return s.mc.rng.Intn(n) }
func (s *synth) chance(p float64) bool { return s.mc.rng.Float64() < p }

// ---------------------------------------------------------------------------
// SynExpr (Algorithm 2, lines 12-19)
// ---------------------------------------------------------------------------

// expr synthesizes an expression of the given type. Rule 1: a random
// literal; Rule 2: reuse a variable from V (recording it in V').
// Array-typed holes build fresh array literals with recursively
// synthesized elements.
func (s *synth) expr(t ast.Type) ast.Expr {
	if t.IsArray() {
		n := 1 + s.pick(5)
		lit := &ast.NewArrayExpr{Elem: t.Elem, Elems: []ast.Expr{}}
		for i := 0; i < n; i++ {
			lit.Elems = append(lit.Elems, s.expr(ast.Type{Kind: t.Elem}))
		}
		return lit
	}
	// Rule 2: reuse an in-scope variable of this type.
	if s.chance(0.5) {
		if v := s.reuse(t); v != nil {
			return v
		}
	}
	// Rule 1: random literal in the type's domain.
	switch t.Kind {
	case ast.KindBoolean:
		return &ast.BoolLit{Value: s.chance(0.5)}
	case ast.KindLong:
		v := s.mc.rng.Int63()
		if s.chance(0.5) {
			v = -v
		}
		if s.chance(0.6) {
			v %= 100000 // mostly small values
		}
		return &ast.IntLit{Value: v, IsLong: true}
	default:
		v := int64(int32(s.mc.rng.Uint64()))
		if s.chance(0.6) {
			v %= 10000
		}
		return &ast.IntLit{Value: v}
	}
}

// reuse returns a reference to an in-scope or synthesized variable of
// type t for reading (Rule 2 of SynExpr). Reads are always neutral and
// need no backup.
func (s *synth) reuse(t ast.Type) ast.Expr {
	var cands []scopeVar
	for _, v := range s.locals {
		if v.typ.Equal(t) {
			cands = append(cands, v)
		}
	}
	for _, v := range s.scope {
		if v.typ.Equal(t) {
			cands = append(cands, v)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return &ast.Ident{Name: cands[s.pick(len(cands))].name}
}

// writeTarget returns a variable the synthesized code may assign to:
// a fresh local, or (when allowed) a reused scope variable.
func (s *synth) writeTarget(t ast.Type) ast.Expr {
	if !s.readOnly && s.chance(0.4) {
		var cands []scopeVar
		for _, v := range s.scope {
			if v.typ.Equal(t) && !v.typ.IsArray() {
				cands = append(cands, v)
			}
		}
		if len(cands) > 0 {
			v := cands[s.pick(len(cands))]
			s.written[v.name] = v.typ
			return &ast.Ident{Name: v.name}
		}
	}
	for _, v := range s.locals {
		if v.typ.Equal(t) && s.chance(0.5) {
			return &ast.Ident{Name: v.name}
		}
	}
	return nil
}

// declFresh declares a new local of type t initialized with a
// synthesized expression and returns (decl, name).
func (s *synth) declFresh(t ast.Type, hint string) (*ast.DeclStmt, string) {
	name := s.mc.fresh(hint)
	d := &ast.DeclStmt{Type: t, Name: name, Init: s.expr(t)}
	s.locals = append(s.locals, scopeVar{name, t})
	return d, name
}

// guardedDiv builds x / (y | 1) — exception-free by construction.
func (s *synth) guardedDiv(t ast.Type, x, y ast.Expr) ast.Expr {
	one := &ast.IntLit{Value: 1, IsLong: t.Kind == ast.KindLong}
	return &ast.BinaryExpr{Op: ast.OpDiv, X: x,
		Y: &ast.BinaryExpr{Op: ast.OpOr, X: y, Y: one}}
}

// ---------------------------------------------------------------------------
// SynStmts (Algorithm 2, lines 20-24): the statement-skeleton corpus
// ---------------------------------------------------------------------------

// stmts synthesizes a statement list by instantiating a random
// skeleton (Section 3.4: skeletons with expression holes, extracted
// from JVM test suites in the paper; a built-in corpus here).
func (s *synth) stmts() []ast.Stmt {
	if s.mc.cfg.DisableSkeletons {
		return nil
	}
	sk := skeletons[s.pick(len(skeletons))]
	return sk(s)
}

// skeleton builds a short statement sequence with expression holes
// filled by SynExpr.
type skeleton func(*synth) []ast.Stmt

var skeletons = []skeleton{
	// Arithmetic update chain on a fresh int.
	func(s *synth) []ast.Stmt {
		d, name := s.declFresh(ast.TypeInt, "a")
		id := func() ast.Expr { return &ast.Ident{Name: name} }
		return []ast.Stmt{
			d,
			&ast.AssignStmt{Target: id(), Op: ast.AsnAdd,
				Value: &ast.BinaryExpr{Op: ast.OpMul, X: s.expr(ast.TypeInt), Y: &ast.IntLit{Value: 3}}},
			&ast.AssignStmt{Target: id(), Op: ast.AsnXor,
				Value: &ast.BinaryExpr{Op: ast.OpShr, X: id(), Y: &ast.IntLit{Value: int64(1 + s.pick(15))}}},
		}
	},
	// Long mix with shifts (xorshift-style).
	func(s *synth) []ast.Stmt {
		d, name := s.declFresh(ast.TypeLong, "x")
		id := func() ast.Expr { return &ast.Ident{Name: name} }
		return []ast.Stmt{
			d,
			&ast.AssignStmt{Target: id(), Op: ast.AsnXor,
				Value: &ast.BinaryExpr{Op: ast.OpShl, X: id(), Y: &ast.IntLit{Value: 13}}},
			&ast.AssignStmt{Target: id(), Op: ast.AsnXor,
				Value: &ast.BinaryExpr{Op: ast.OpUshr, X: id(), Y: &ast.IntLit{Value: 7}}},
			&ast.AssignStmt{Target: id(), Op: ast.AsnAdd, Value: s.expr(ast.TypeLong)},
		}
	},
	// Conditional update of a (possibly reused) variable.
	func(s *synth) []ast.Stmt {
		t := ast.TypeInt
		target := s.writeTarget(t)
		var pre []ast.Stmt
		if target == nil {
			d, name := s.declFresh(t, "c")
			pre = append(pre, d)
			target = &ast.Ident{Name: name}
		}
		cond := &ast.BinaryExpr{Op: ast.OpLt, X: s.expr(t), Y: s.expr(t)}
		return append(pre, &ast.IfStmt{
			Cond: cond,
			Then: &ast.Block{Stmts: []ast.Stmt{
				&ast.AssignStmt{Target: ast.CloneExpr(target), Op: ast.AsnAdd, Value: s.expr(t)},
			}},
			Else: &ast.Block{Stmts: []ast.Stmt{
				&ast.AssignStmt{Target: ast.CloneExpr(target), Op: ast.AsnSub, Value: &ast.IntLit{Value: int64(s.pick(100))}},
			}},
		})
	},
	// A small inner loop accumulating into a fresh long — the nested
	// loop shape that drives deeper OSR behaviour.
	func(s *synth) []ast.Stmt {
		acc, accName := s.declFresh(ast.TypeLong, "s")
		idx := s.mc.fresh("k")
		bound := int64(2 + s.pick(12))
		return []ast.Stmt{
			acc,
			&ast.ForStmt{
				Init: &ast.DeclStmt{Type: ast.TypeInt, Name: idx, Init: &ast.IntLit{Value: 0}},
				Cond: &ast.BinaryExpr{Op: ast.OpLt, X: &ast.Ident{Name: idx}, Y: &ast.IntLit{Value: bound}},
				Post: &ast.AssignStmt{Target: &ast.Ident{Name: idx}, Op: ast.AsnAdd, Value: &ast.IntLit{Value: 1}},
				Body: &ast.Block{Stmts: []ast.Stmt{
					&ast.AssignStmt{Target: &ast.Ident{Name: accName}, Op: ast.AsnAdd,
						Value: &ast.BinaryExpr{Op: ast.OpMul,
							X: &ast.Ident{Name: idx},
							Y: s.expr(ast.TypeInt)}},
				}},
			},
		}
	},
	// Switch over a synthesized tag with fallthrough.
	func(s *synth) []ast.Stmt {
		d, name := s.declFresh(ast.TypeInt, "t")
		id := func() ast.Expr { return &ast.Ident{Name: name} }
		tag := &ast.BinaryExpr{Op: ast.OpRem,
			X: &ast.BinaryExpr{Op: ast.OpAnd, X: s.expr(ast.TypeInt), Y: &ast.IntLit{Value: 0x7fffffff}},
			Y: &ast.IntLit{Value: 4}}
		return []ast.Stmt{
			d,
			&ast.SwitchStmt{Tag: tag, Cases: []*ast.SwitchCase{
				{Values: []int64{0}, Body: []ast.Stmt{
					&ast.AssignStmt{Target: id(), Op: ast.AsnAdd, Value: s.expr(ast.TypeInt)},
				}},
				{Values: []int64{1}, Body: []ast.Stmt{
					&ast.AssignStmt{Target: id(), Op: ast.AsnXor, Value: &ast.IntLit{Value: int64(s.pick(1 << 16))}},
					&ast.BreakStmt{},
				}},
				{Values: []int64{2}, Body: []ast.Stmt{
					&ast.AssignStmt{Target: id(), Op: ast.AsnMul, Value: &ast.IntLit{Value: int64(2 + s.pick(7))}},
					&ast.BreakStmt{},
				}},
				{Values: nil, Body: []ast.Stmt{
					&ast.AssignStmt{Target: id(), Op: ast.AsnSub, Value: &ast.IntLit{Value: 1}},
				}},
			}},
		}
	},
	// Fresh array fill-and-fold.
	func(s *synth) []ast.Stmt {
		arrName := s.mc.fresh("ar")
		n := int64(2 + s.pick(6))
		accD, accName := s.declFresh(ast.TypeInt, "f")
		idx := s.mc.fresh("q")
		s.locals = append(s.locals, scopeVar{arrName, ast.ArrayOf(ast.KindInt)})
		return []ast.Stmt{
			&ast.DeclStmt{Type: ast.ArrayOf(ast.KindInt), Name: arrName,
				Init: &ast.NewArrayExpr{Elem: ast.KindInt, Len: &ast.IntLit{Value: n}}},
			accD,
			&ast.ForStmt{
				Init: &ast.DeclStmt{Type: ast.TypeInt, Name: idx, Init: &ast.IntLit{Value: 0}},
				Cond: &ast.BinaryExpr{Op: ast.OpLt, X: &ast.Ident{Name: idx},
					Y: &ast.LenExpr{Arr: &ast.Ident{Name: arrName}}},
				Post: &ast.AssignStmt{Target: &ast.Ident{Name: idx}, Op: ast.AsnAdd, Value: &ast.IntLit{Value: 1}},
				Body: &ast.Block{Stmts: []ast.Stmt{
					&ast.AssignStmt{
						Target: &ast.IndexExpr{Arr: &ast.Ident{Name: arrName}, Index: &ast.Ident{Name: idx}},
						Op:     ast.AsnSet,
						Value: &ast.BinaryExpr{Op: ast.OpAdd, X: &ast.Ident{Name: idx},
							Y: s.expr(ast.TypeInt)}},
					&ast.AssignStmt{Target: &ast.Ident{Name: accName}, Op: ast.AsnAdd,
						Value: &ast.IndexExpr{Arr: &ast.Ident{Name: arrName}, Index: &ast.Ident{Name: idx}}},
				}},
			},
		}
	},
	// Guarded division / remainder chain.
	func(s *synth) []ast.Stmt {
		d, name := s.declFresh(ast.TypeInt, "d")
		id := func() ast.Expr { return &ast.Ident{Name: name} }
		return []ast.Stmt{
			d,
			&ast.AssignStmt{Target: id(), Op: ast.AsnSet,
				Value: s.guardedDiv(ast.TypeInt, id(), s.expr(ast.TypeInt))},
			&ast.AssignStmt{Target: id(), Op: ast.AsnAdd,
				Value: &ast.BinaryExpr{Op: ast.OpRem,
					X: &ast.BinaryExpr{Op: ast.OpAnd, X: s.expr(ast.TypeInt), Y: &ast.IntLit{Value: 0x7fffffff}},
					Y: &ast.IntLit{Value: int64(3 + s.pick(97))}}},
		}
	},
	// Boolean cascade into a fresh flag (conditional flow diversity).
	func(s *synth) []ast.Stmt {
		d, name := s.declFresh(ast.TypeBoolean, "b")
		id := func() ast.Expr { return &ast.Ident{Name: name} }
		cmp := &ast.BinaryExpr{Op: ast.OpGe, X: s.expr(ast.TypeLong), Y: s.expr(ast.TypeLong)}
		return []ast.Stmt{
			d,
			&ast.AssignStmt{Target: id(), Op: ast.AsnSet,
				Value: &ast.BinaryExpr{Op: ast.OpLOr, X: id(),
					Y: &ast.BinaryExpr{Op: ast.OpLAnd, X: cmp, Y: s.expr(ast.TypeBoolean)}}},
		}
	},
	// Ternary pyramid.
	func(s *synth) []ast.Stmt {
		d, name := s.declFresh(ast.TypeInt, "y")
		id := func() ast.Expr { return &ast.Ident{Name: name} }
		inner := &ast.CondExpr{
			Cond: &ast.BinaryExpr{Op: ast.OpNe, X: s.expr(ast.TypeInt), Y: &ast.IntLit{Value: 0}},
			Then: s.expr(ast.TypeInt),
			Else: &ast.UnaryExpr{Op: ast.OpBitNot, X: s.expr(ast.TypeInt)},
		}
		return []ast.Stmt{
			d,
			&ast.AssignStmt{Target: id(), Op: ast.AsnSet, Value: &ast.CondExpr{
				Cond: &ast.BinaryExpr{Op: ast.OpLt, X: id(), Y: s.expr(ast.TypeInt)},
				Then: inner,
				Else: id(),
			}},
		}
	},
	// Cast round-trips (int <-> long narrowing behaviour).
	func(s *synth) []ast.Stmt {
		d, name := s.declFresh(ast.TypeLong, "w")
		id := func() ast.Expr { return &ast.Ident{Name: name} }
		return []ast.Stmt{
			d,
			&ast.AssignStmt{Target: id(), Op: ast.AsnAdd,
				Value: &ast.CastExpr{To: ast.TypeLong,
					X: &ast.CastExpr{To: ast.TypeInt, X: &ast.BinaryExpr{Op: ast.OpMul, X: id(), Y: s.expr(ast.TypeLong)}}}},
			&ast.AssignStmt{Target: id(), Op: ast.AsnUshr, Value: &ast.IntLit{Value: int64(1 + s.pick(30))}},
		}
	},
	// Nested conditional ladder over a reused comparison.
	func(s *synth) []ast.Stmt {
		d, name := s.declFresh(ast.TypeInt, "g")
		id := func() ast.Expr { return &ast.Ident{Name: name} }
		mk := func(op ast.BinOp, k int64) *ast.IfStmt {
			return &ast.IfStmt{
				Cond: &ast.BinaryExpr{Op: op, X: id(), Y: s.expr(ast.TypeInt)},
				Then: &ast.Block{Stmts: []ast.Stmt{
					&ast.AssignStmt{Target: id(), Op: ast.AsnAdd, Value: &ast.IntLit{Value: k}},
				}},
			}
		}
		inner := mk(ast.OpLt, 3)
		outer := mk(ast.OpGe, -7)
		outer.Else = &ast.Block{Stmts: []ast.Stmt{inner}}
		return []ast.Stmt{d, outer}
	},
	// Two interacting accumulators (classic induction-variable pair).
	func(s *synth) []ast.Stmt {
		d1, n1 := s.declFresh(ast.TypeInt, "u")
		d2, n2 := s.declFresh(ast.TypeInt, "v")
		id1 := func() ast.Expr { return &ast.Ident{Name: n1} }
		id2 := func() ast.Expr { return &ast.Ident{Name: n2} }
		return []ast.Stmt{
			d1, d2,
			&ast.AssignStmt{Target: id1(), Op: ast.AsnAdd, Value: id2()},
			&ast.AssignStmt{Target: id2(), Op: ast.AsnSub, Value: id1()},
			&ast.AssignStmt{Target: id1(), Op: ast.AsnXor, Value: id2()},
		}
	},
	// Long/int mixed-width arithmetic with explicit promotions.
	func(s *synth) []ast.Stmt {
		dl, nl := s.declFresh(ast.TypeLong, "ml")
		di, ni := s.declFresh(ast.TypeInt, "mi")
		return []ast.Stmt{
			dl, di,
			&ast.AssignStmt{Target: &ast.Ident{Name: nl}, Op: ast.AsnAdd,
				Value: &ast.BinaryExpr{Op: ast.OpMul,
					X: &ast.Ident{Name: ni},
					Y: s.expr(ast.TypeLong)}},
			&ast.AssignStmt{Target: &ast.Ident{Name: ni}, Op: ast.AsnSet,
				Value: &ast.CastExpr{To: ast.TypeInt,
					X: &ast.BinaryExpr{Op: ast.OpUshr, X: &ast.Ident{Name: nl},
						Y: &ast.IntLit{Value: int64(1 + s.pick(40))}}}},
		}
	},
	// A boolean-array flag table driving updates.
	func(s *synth) []ast.Stmt {
		arrName := s.mc.fresh("fl")
		s.locals = append(s.locals, scopeVar{arrName, ast.ArrayOf(ast.KindBoolean)})
		accD, accName := s.declFresh(ast.TypeInt, "h")
		idx := s.mc.fresh("j")
		n := int64(2 + s.pick(5))
		elems := make([]ast.Expr, n)
		for i := range elems {
			elems[i] = &ast.BoolLit{Value: s.chance(0.5)}
		}
		return []ast.Stmt{
			&ast.DeclStmt{Type: ast.ArrayOf(ast.KindBoolean), Name: arrName,
				Init: &ast.NewArrayExpr{Elem: ast.KindBoolean, Elems: elems}},
			accD,
			&ast.ForStmt{
				Init: &ast.DeclStmt{Type: ast.TypeInt, Name: idx, Init: &ast.IntLit{Value: 0}},
				Cond: &ast.BinaryExpr{Op: ast.OpLt, X: &ast.Ident{Name: idx},
					Y: &ast.LenExpr{Arr: &ast.Ident{Name: arrName}}},
				Post: &ast.AssignStmt{Target: &ast.Ident{Name: idx}, Op: ast.AsnAdd, Value: &ast.IntLit{Value: 1}},
				Body: &ast.Block{Stmts: []ast.Stmt{
					&ast.IfStmt{
						Cond: &ast.IndexExpr{Arr: &ast.Ident{Name: arrName}, Index: &ast.Ident{Name: idx}},
						Then: &ast.Block{Stmts: []ast.Stmt{
							&ast.AssignStmt{Target: &ast.Ident{Name: accName}, Op: ast.AsnAdd, Value: &ast.Ident{Name: idx}},
						}},
						Else: &ast.Block{Stmts: []ast.Stmt{
							&ast.AssignStmt{Target: &ast.Ident{Name: accName}, Op: ast.AsnSub, Value: &ast.IntLit{Value: 2}},
						}},
					},
				}},
			},
		}
	},
	// Early-break search loop (the uncommon-trap-shaped exit).
	func(s *synth) []ast.Stmt {
		accD, accName := s.declFresh(ast.TypeInt, "sr")
		idx := s.mc.fresh("p")
		bound := int64(4 + s.pick(12))
		return []ast.Stmt{
			accD,
			&ast.ForStmt{
				Init: &ast.DeclStmt{Type: ast.TypeInt, Name: idx, Init: &ast.IntLit{Value: 0}},
				Cond: &ast.BinaryExpr{Op: ast.OpLt, X: &ast.Ident{Name: idx}, Y: &ast.IntLit{Value: bound}},
				Post: &ast.AssignStmt{Target: &ast.Ident{Name: idx}, Op: ast.AsnAdd, Value: &ast.IntLit{Value: 1}},
				Body: &ast.Block{Stmts: []ast.Stmt{
					&ast.AssignStmt{Target: &ast.Ident{Name: accName}, Op: ast.AsnAdd,
						Value: &ast.BinaryExpr{Op: ast.OpMul, X: &ast.Ident{Name: idx}, Y: s.expr(ast.TypeInt)}},
					&ast.IfStmt{
						Cond: &ast.BinaryExpr{Op: ast.OpGt, X: &ast.Ident{Name: accName}, Y: s.expr(ast.TypeInt)},
						Then: &ast.Block{Stmts: []ast.Stmt{&ast.BreakStmt{}}},
					},
				}},
			},
		}
	},
	// Bit-counting loop (shifts with data-dependent trip behaviour).
	func(s *synth) []ast.Stmt {
		dv, nv := s.declFresh(ast.TypeInt, "bits")
		cnt := s.mc.fresh("c")
		wv := s.mc.fresh("wv")
		return []ast.Stmt{
			dv,
			&ast.DeclStmt{Type: ast.TypeInt, Name: cnt, Init: &ast.IntLit{Value: 0}},
			&ast.DeclStmt{Type: ast.TypeInt, Name: wv, Init: &ast.Ident{Name: nv}},
			&ast.WhileStmt{
				Cond: &ast.BinaryExpr{Op: ast.OpNe, X: &ast.Ident{Name: wv}, Y: &ast.IntLit{Value: 0}},
				Body: &ast.Block{Stmts: []ast.Stmt{
					&ast.AssignStmt{Target: &ast.Ident{Name: cnt}, Op: ast.AsnAdd,
						Value: &ast.BinaryExpr{Op: ast.OpAnd, X: &ast.Ident{Name: wv}, Y: &ast.IntLit{Value: 1}}},
					&ast.AssignStmt{Target: &ast.Ident{Name: wv}, Op: ast.AsnUshr, Value: &ast.IntLit{Value: 1}},
				}},
			},
			&ast.AssignStmt{Target: &ast.Ident{Name: nv}, Op: ast.AsnSet, Value: &ast.Ident{Name: cnt}},
		}
	},
	// Switch dispatch over a masked long.
	func(s *synth) []ast.Stmt {
		d, name := s.declFresh(ast.TypeLong, "sw")
		id := func() ast.Expr { return &ast.Ident{Name: name} }
		tag := &ast.CastExpr{To: ast.TypeInt,
			X: &ast.BinaryExpr{Op: ast.OpAnd, X: id(), Y: &ast.IntLit{Value: 7, IsLong: true}}}
		return []ast.Stmt{
			d,
			&ast.SwitchStmt{Tag: tag, Cases: []*ast.SwitchCase{
				{Values: []int64{0, 1}, Body: []ast.Stmt{
					&ast.AssignStmt{Target: id(), Op: ast.AsnAdd, Value: s.expr(ast.TypeLong)},
					&ast.BreakStmt{},
				}},
				{Values: []int64{2}, Body: []ast.Stmt{
					&ast.AssignStmt{Target: id(), Op: ast.AsnShl, Value: &ast.IntLit{Value: 3}},
				}},
				{Values: []int64{5}, Body: []ast.Stmt{
					&ast.AssignStmt{Target: id(), Op: ast.AsnSet,
						Value: s.guardedDiv(ast.TypeLong, id(), s.expr(ast.TypeLong))},
					&ast.BreakStmt{},
				}},
				{Values: nil, Body: []ast.Stmt{
					&ast.AssignStmt{Target: id(), Op: ast.AsnXor, Value: &ast.IntLit{Value: -1, IsLong: true}},
				}},
			}},
		}
	},
	// Ternary-driven strength reduction shapes.
	func(s *synth) []ast.Stmt {
		d, name := s.declFresh(ast.TypeInt, "tr")
		id := func() ast.Expr { return &ast.Ident{Name: name} }
		return []ast.Stmt{
			d,
			&ast.AssignStmt{Target: id(), Op: ast.AsnMul, Value: &ast.IntLit{Value: 8}},
			&ast.AssignStmt{Target: id(), Op: ast.AsnSet, Value: &ast.CondExpr{
				Cond: &ast.BinaryExpr{Op: ast.OpEq,
					X: &ast.BinaryExpr{Op: ast.OpAnd, X: id(), Y: &ast.IntLit{Value: 1}},
					Y: &ast.IntLit{Value: 0}},
				Then: &ast.BinaryExpr{Op: ast.OpShr, X: id(), Y: &ast.IntLit{Value: 1}},
				Else: &ast.BinaryExpr{Op: ast.OpAdd,
					X: &ast.BinaryExpr{Op: ast.OpMul, X: id(), Y: &ast.IntLit{Value: 3}},
					Y: &ast.IntLit{Value: 1}},
			}},
		}
	},
	// A countdown while loop.
	func(s *synth) []ast.Stmt {
		cname := s.mc.fresh("n")
		d := &ast.DeclStmt{Type: ast.TypeInt, Name: cname, Init: &ast.IntLit{Value: int64(2 + s.pick(9))}}
		s.locals = append(s.locals, scopeVar{cname, ast.TypeInt})
		acc, accName := s.declFresh(ast.TypeInt, "z")
		return []ast.Stmt{
			d,
			acc,
			&ast.WhileStmt{
				Cond: &ast.BinaryExpr{Op: ast.OpGt, X: &ast.Ident{Name: cname}, Y: &ast.IntLit{Value: 0}},
				Body: &ast.Block{Stmts: []ast.Stmt{
					&ast.AssignStmt{Target: &ast.Ident{Name: cname}, Op: ast.AsnSub, Value: &ast.IntLit{Value: 1}},
					&ast.AssignStmt{Target: &ast.Ident{Name: accName}, Op: ast.AsnOr,
						Value: &ast.BinaryExpr{Op: ast.OpShl, X: &ast.Ident{Name: cname},
							Y: &ast.BinaryExpr{Op: ast.OpAnd, X: &ast.Ident{Name: cname}, Y: &ast.IntLit{Value: 15}}}},
				}},
			},
		}
	},
}

// ---------------------------------------------------------------------------
// SynLoop (Algorithm 2, lines 1-11)
// ---------------------------------------------------------------------------

// synLoop builds a synthesized loop following the Figure 3 skeleton:
//
//	for (int i = min(MIN, e1); i < max(MAX, clamp(e2)); i += STEP) {
//	    <stmts>;
//	    [placeholder]
//	    <stmts>;
//	}
//
// plus the V' backup declarations before and restores after. The
// placeholder statements (SW's wrapped statement, MI's pre-invocation)
// are supplied by the mutator. Both bound expressions are clamped
// modulo the hyper-parameters so trip counts stay within
// [ (MAX-MIN)/STEP, (2·MAX+MIN)/STEP ] — enough heat to cross every
// compilation threshold, never enough to blow the step budget (the
// practical stand-in for the paper's 2-minute timeout).
func (s *synth) synLoop(placeholder []ast.Stmt) (pre []ast.Stmt, loop ast.Stmt, post []ast.Stmt) {
	cfg := s.mc.cfg
	iname := s.mc.fresh("i")
	id := func() ast.Expr { return &ast.Ident{Name: iname} }

	// init = min(MIN, e1 % MIN)
	e1 := s.expr(ast.TypeInt)
	e1m := &ast.BinaryExpr{Op: ast.OpRem, X: e1, Y: &ast.IntLit{Value: cfg.Min}}
	initName := s.mc.fresh("lo")
	initDecl := &ast.DeclStmt{Type: ast.TypeInt, Name: initName, Init: e1m}
	initVal := &ast.CondExpr{
		Cond: &ast.BinaryExpr{Op: ast.OpLt, X: &ast.Ident{Name: initName}, Y: &ast.IntLit{Value: cfg.Min}},
		Then: &ast.Ident{Name: initName},
		Else: &ast.IntLit{Value: cfg.Min},
	}

	// bound = max(MAX, e2 % (2*MAX))
	e2 := s.expr(ast.TypeInt)
	e2m := &ast.BinaryExpr{Op: ast.OpRem, X: e2, Y: &ast.IntLit{Value: 2 * cfg.Max}}
	boundName := s.mc.fresh("hi")
	boundDecl := &ast.DeclStmt{Type: ast.TypeInt, Name: boundName, Init: e2m}
	boundVal := &ast.CondExpr{
		Cond: &ast.BinaryExpr{Op: ast.OpGt, X: &ast.Ident{Name: boundName}, Y: &ast.IntLit{Value: cfg.Max}},
		Then: &ast.Ident{Name: boundName},
		Else: &ast.IntLit{Value: cfg.Max},
	}

	step := int64(1 + s.pick(int(cfg.StepMax)))

	var body []ast.Stmt
	body = append(body, s.stmts()...)
	body = append(body, placeholder...)
	body = append(body, s.stmts()...)

	loopStmt := &ast.ForStmt{
		Init: &ast.DeclStmt{Type: ast.TypeInt, Name: iname, Init: initVal},
		Cond: &ast.BinaryExpr{Op: ast.OpLt, X: id(), Y: boundVal},
		Post: &ast.AssignStmt{Target: id(), Op: ast.AsnAdd, Value: &ast.IntLit{Value: step}},
		Body: &ast.Block{Stmts: body},
	}

	// Backups for the written subset of V' (Algorithm 2, lines 9-10).
	pre = []ast.Stmt{initDecl, boundDecl}
	names := make([]string, 0, len(s.written))
	for n := range s.written {
		names = append(names, n)
	}
	// Deterministic order.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, n := range names {
		t := s.written[n]
		if t.IsArray() {
			continue // writeTarget never selects arrays
		}
		bak := s.mc.fresh("bak")
		pre = append(pre, &ast.DeclStmt{Type: t, Name: bak, Init: &ast.Ident{Name: n}})
		post = append(post, &ast.AssignStmt{Target: &ast.Ident{Name: n}, Op: ast.AsnSet, Value: &ast.Ident{Name: bak}})
	}
	return pre, loopStmt, post
}
