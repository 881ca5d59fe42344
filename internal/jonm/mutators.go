package jonm

import (
	"fmt"

	"artemis/internal/lang/ast"
)

// loopInserter implements LI (Section 3.4): synthesize a loop and
// insert it at a random program point. The loop heats the enclosing
// method toward OSR compilation; depending on the VM this also brings
// an extra de-optimization when the loop exits.
func (mc *mutationCtx) loopInserter(i int) (Application, bool) {
	// Select the point on the (possibly still seed-shared) method;
	// the clone is structurally identical, so the chosen ordinal maps
	// 1:1 onto the clone's point list.
	m := mc.prog.Class.Methods[i]
	points := mc.collectPoints(m)
	idx := mc.rng.Intn(len(points))
	pp := points[idx]
	if !mc.cloned[i] {
		m = mc.ensureCloned(i)
		pp = mc.collectPoints(m)[idx]
	}
	sy := newSynth(mc, mc.scopeWithFields(mc.scopeAt(m, idx)))
	pre, loop, post := sy.synLoop(nil)

	var stmts []ast.Stmt
	stmts = append(stmts, pre...)
	stmts = append(stmts, loop)
	stmts = append(stmts, post...)
	pp.insert(stmts...)
	mc.touch(m.Name)
	return Application{Mutator: LI, Method: m.Name, Detail: "loop inserted"}, true
}

// statementWrapper implements SW: the statement right after ρ is
// wrapped inside the synthesized loop, guarded by a one-shot exec
// flag, so it executes exactly once while the surrounding loop gets
// hot — driving the statement and the loop to be compiled together.
//
// The loop body around the wrapped statement is synthesized in
// read-only mode: the original statement must observe exactly the
// state it would have observed in the seed.
func (mc *mutationCtx) statementWrapper(i int) (Application, bool) {
	m := mc.prog.Class.Methods[i]
	points := mc.collectPoints(m)
	// Candidate points: those directly followed by a wrappable
	// statement.
	var cands []int
	for idx, pp := range points {
		if wrappable(pp.next()) {
			cands = append(cands, idx)
		}
	}
	if len(cands) == 0 {
		return Application{}, false
	}
	idx := cands[mc.rng.Intn(len(cands))]
	pp := points[idx]
	if !mc.cloned[i] {
		m = mc.ensureCloned(i)
		pp = mc.collectPoints(m)[idx]
	}
	wrapped := pp.next()

	sy := newSynth(mc, mc.scopeWithFields(mc.scopeAt(m, idx)))
	sy.readOnly = true

	execName := mc.fresh("exec")
	oneShot := &ast.IfStmt{
		Cond: &ast.UnaryExpr{Op: ast.OpNot, X: &ast.Ident{Name: execName}},
		Then: &ast.Block{Stmts: []ast.Stmt{
			wrapped,
			&ast.AssignStmt{Target: &ast.Ident{Name: execName}, Op: ast.AsnSet, Value: &ast.BoolLit{Value: true}},
		}},
	}
	pre, loop, post := sy.synLoop([]ast.Stmt{oneShot})

	var stmts []ast.Stmt
	stmts = append(stmts, &ast.DeclStmt{Type: ast.TypeBoolean, Name: execName, Init: &ast.BoolLit{Value: false}})
	stmts = append(stmts, pre...)
	stmts = append(stmts, loop)
	stmts = append(stmts, post...)

	// Replace the wrapped statement with the whole construct.
	pp.replaceNext(&ast.Block{Stmts: stmts})
	mc.touch(m.Name)
	return Application{Mutator: SW, Method: m.Name, Detail: "statement wrapped"}, true
}

// wrappable reports whether s can be moved inside a synthesized loop
// without changing semantics or well-formedness: declarations would
// fall out of scope, loose break/continue would re-bind to the
// synthesized loop, and returns may be load-bearing for the
// definite-return analysis.
func wrappable(s ast.Stmt) bool {
	switch s.(type) {
	case nil, *ast.DeclStmt, *ast.BreakStmt, *ast.ContinueStmt:
		return false
	}
	return !hasLooseJump(s) && !containsReturn(s)
}

// containsReturn reports whether s contains a return statement
// anywhere.
func containsReturn(s ast.Stmt) bool {
	return !ast.WalkStmt(s, func(s ast.Stmt) bool {
		_, ok := s.(*ast.ReturnStmt)
		return !ok
	})
}

// hasLooseJump reports whether s contains a break/continue that binds
// outside s itself.
func hasLooseJump(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BreakStmt, *ast.ContinueStmt:
		return true
	case *ast.Block:
		for _, bs := range s.Stmts {
			if hasLooseJump(bs) {
				return true
			}
		}
	case *ast.IfStmt:
		for _, bs := range s.Then.Stmts {
			if hasLooseJump(bs) {
				return true
			}
		}
		if s.Else != nil {
			return hasLooseJump(s.Else)
		}
	case *ast.ForStmt, *ast.WhileStmt, *ast.SwitchStmt:
		// Their own breaks/continues bind inside; a nested continue
		// binding to an *outer* loop cannot be expressed in MJ
		// (no labels), so these are self-contained.
		return false
	}
	return false
}

// methodInvocator implements MI: pick a method m with at least one
// call site; give it a control-field-guarded early-return prologue;
// then insert a synthesized loop right before a random call site that
// pre-invokes m thousands of times with the control field set — the
// Figure 2 mechanism that gets m JIT-compiled (and speculated on)
// before its real call.
func (mc *mutationCtx) methodInvocator(i int) (Application, bool) {
	m := mc.prog.Class.Methods[i]
	if m.Name == "main" {
		return Application{}, false
	}
	sites := mc.callSites(m.Name)
	if len(sites) == 0 {
		return Application{}, false
	}
	site := sites[mc.rng.Intn(len(sites))]

	// Clone both edited methods now, and take the site point before
	// the prologue below shifts m's body (when the site is in m
	// itself, the point must index the pre-prologue statement list).
	m = mc.ensureCloned(i)
	siteM := mc.ensureCloned(site.mIdx)
	sp := mc.collectPoints(siteM)[site.ordinal]
	siteScope := mc.scopeAt(siteM, site.ordinal)

	// Control field, default false.
	ctrlName := mc.fresh("ctl")
	mc.prog.Class.Fields = append(mc.prog.Class.Fields,
		&ast.Field{Type: ast.TypeBoolean, Name: ctrlName, Init: &ast.BoolLit{Value: false}})

	// Early-return prologue: if (ctl) { <stmts>; return <expr>; }.
	// Synthesized in read-only mode — it runs on every pre-invocation
	// and must not disturb pre-existing state.
	var proScope []scopeVar
	for _, p := range m.Params {
		proScope = append(proScope, scopeVar{p.Name, p.Type})
	}
	proSy := newSynth(mc, mc.scopeWithFields(proScope))
	proSy.readOnly = true
	proBody := proSy.stmts()
	if m.Ret.Kind == ast.KindVoid {
		proBody = append(proBody, &ast.ReturnStmt{})
	} else {
		proBody = append(proBody, &ast.ReturnStmt{Value: proSy.expr(m.Ret)})
	}
	prologue := &ast.IfStmt{
		Cond: &ast.Ident{Name: ctrlName},
		Then: &ast.Block{Stmts: proBody},
	}
	m.Body.Stmts = append([]ast.Stmt{prologue}, m.Body.Stmts...)

	// Pre-invocation loop before the chosen call site:
	//   ctl = true; m(<synthesized args>); ctl = false;
	// Args are synthesized from variables in scope at the site.
	siteSy := newSynth(mc, mc.scopeWithFields(siteScope))
	call := &ast.CallExpr{Name: m.Name}
	for _, p := range m.Params {
		call.Args = append(call.Args, siteSy.expr(p.Type))
	}
	var callStmt ast.Stmt = &ast.ExprStmt{X: call}
	if m.Ret.Kind != ast.KindVoid {
		// Calls are statements only when the result is discarded; MJ
		// requires ExprStmt to be a call, which it is.
		callStmt = &ast.ExprStmt{X: call}
	}
	placeholder := []ast.Stmt{
		&ast.AssignStmt{Target: &ast.Ident{Name: ctrlName}, Op: ast.AsnSet, Value: &ast.BoolLit{Value: true}},
		callStmt,
		&ast.AssignStmt{Target: &ast.Ident{Name: ctrlName}, Op: ast.AsnSet, Value: &ast.BoolLit{Value: false}},
	}
	pre, loop, post := siteSy.synLoop(placeholder)

	var stmts []ast.Stmt
	stmts = append(stmts, pre...)
	stmts = append(stmts, loop)
	stmts = append(stmts, post...)
	sp.insert(stmts...)
	mc.touch(m.Name)
	mc.touch(siteM.Name) // the call-site method's body changed too

	return Application{Mutator: MI, Method: m.Name,
		Detail: fmt.Sprintf("pre-invoked before call in %s", siteM.Name)}, true
}

// callSite names a statement position directly containing a call to a
// target method: method mIdx's point list, entry ordinal. Ordinals
// stay valid across cloning (the clone is structurally identical).
type callSite struct {
	mIdx    int
	ordinal int
}

// callSites finds every statement in the program whose expressions
// call the named method, returning the insertion point just before it.
func (mc *mutationCtx) callSites(name string) []callSite {
	var sites []callSite
	for mi, m := range mc.prog.Class.Methods {
		points := mc.collectPoints(m)
		for idx, pp := range points {
			s := pp.next()
			if s == nil {
				continue
			}
			if stmtCalls(s, name) {
				sites = append(sites, callSite{mIdx: mi, ordinal: idx})
			}
		}
	}
	return sites
}

// stmtCalls reports whether the statement's own expressions (not those
// of nested statements) contain a call to name.
func stmtCalls(s ast.Stmt, name string) bool {
	found := false
	check := func(e ast.Expr) {
		ast.WalkExprs(e, func(x ast.Expr) {
			if c, ok := x.(*ast.CallExpr); ok && c.Name == name {
				found = true
			}
		})
	}
	switch s := s.(type) {
	case *ast.DeclStmt:
		check(s.Init)
	case *ast.AssignStmt:
		check(s.Target)
		check(s.Value)
	case *ast.ExprStmt:
		check(s.X)
	case *ast.PrintStmt:
		check(s.X)
	case *ast.ReturnStmt:
		check(s.Value)
	case *ast.IfStmt:
		check(s.Cond)
	case *ast.WhileStmt:
		check(s.Cond)
	case *ast.SwitchStmt:
		check(s.Tag)
	case *ast.ForStmt:
		if d, ok := s.Init.(*ast.DeclStmt); ok {
			check(d.Init)
		}
		if a, ok := s.Init.(*ast.AssignStmt); ok {
			check(a.Value)
		}
		check(s.Cond)
	}
	return found
}
