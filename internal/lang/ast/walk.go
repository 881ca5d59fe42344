package ast

import "fmt"

// WalkStmts calls fn for every statement in the method body, in source
// order, including nested statements. If fn returns false, the walk
// stops early. The *Block wrappers themselves are visited too.
func WalkStmts(m *Method, fn func(Stmt) bool) {
	walkBlock(m.Body, fn)
}

func walkBlock(b *Block, fn func(Stmt) bool) bool {
	if b == nil {
		return true
	}
	if !fn(b) {
		return false
	}
	for _, s := range b.Stmts {
		if !WalkStmt(s, fn) {
			return false
		}
	}
	return true
}

// WalkStmt calls fn for s and every statement nested in it, in source
// order, like WalkStmts. It returns false if fn stopped the walk.
func WalkStmt(s Stmt, fn func(Stmt) bool) bool {
	switch s := s.(type) {
	case *Block:
		return walkBlock(s, fn)
	case *IfStmt:
		if !fn(s) {
			return false
		}
		if !walkBlock(s.Then, fn) {
			return false
		}
		if s.Else != nil {
			return WalkStmt(s.Else, fn)
		}
		return true
	case *ForStmt:
		if !fn(s) {
			return false
		}
		return walkBlock(s.Body, fn)
	case *WhileStmt:
		if !fn(s) {
			return false
		}
		return walkBlock(s.Body, fn)
	case *SwitchStmt:
		if !fn(s) {
			return false
		}
		for _, c := range s.Cases {
			for _, bs := range c.Body {
				if !WalkStmt(bs, fn) {
					return false
				}
			}
		}
		return true
	default:
		return fn(s)
	}
}

// WalkExprs calls fn for every expression reachable from e, pre-order.
func WalkExprs(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch e := e.(type) {
	case *IndexExpr:
		WalkExprs(e.Arr, fn)
		WalkExprs(e.Index, fn)
	case *LenExpr:
		WalkExprs(e.Arr, fn)
	case *CallExpr:
		for _, a := range e.Args {
			WalkExprs(a, fn)
		}
	case *UnaryExpr:
		WalkExprs(e.X, fn)
	case *BinaryExpr:
		WalkExprs(e.X, fn)
		WalkExprs(e.Y, fn)
	case *CondExpr:
		WalkExprs(e.Cond, fn)
		WalkExprs(e.Then, fn)
		WalkExprs(e.Else, fn)
	case *NewArrayExpr:
		WalkExprs(e.Len, fn)
		for _, el := range e.Elems {
			WalkExprs(el, fn)
		}
	case *CastExpr:
		WalkExprs(e.X, fn)
	case *IntLit, *BoolLit, *Ident:
	default:
		panic(fmt.Sprintf("ast: walk of unknown expression %T", e))
	}
}

// CountStmts returns the number of statements in the method body
// (excluding block wrappers), a simple size metric used by the fuzzer
// and the reducer.
func CountStmts(m *Method) int {
	n := 0
	WalkStmts(m, func(s Stmt) bool {
		if _, ok := s.(*Block); !ok {
			n++
		}
		return true
	})
	return n
}

// ProgramSize returns the total statement count over all methods.
func ProgramSize(p *Program) int {
	n := 0
	for _, m := range p.Class.Methods {
		n += CountStmts(m)
	}
	return n
}
