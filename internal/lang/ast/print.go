package ast

import (
	"fmt"
	"math"
	"strings"
)

// Print renders a program as MJ source text. The output parses back to
// an equivalent tree (modulo positions), which the printer round-trip
// tests rely on.
func Print(p *Program) string {
	var pr printer
	pr.class(p.Class)
	return pr.b.String()
}

// PrintExpr renders a single expression.
func PrintExpr(e Expr) string {
	var pr printer
	pr.expr(e, precLowest)
	return pr.b.String()
}

type printer struct {
	b      strings.Builder
	indent int
}

func (p *printer) line(format string, args ...any) {
	p.pad()
	fmt.Fprintf(&p.b, format, args...)
	p.b.WriteByte('\n')
}

func (p *printer) pad() {
	for i := 0; i < p.indent; i++ {
		p.b.WriteString("    ")
	}
}

func (p *printer) class(c *Class) {
	p.line("class %s {", c.Name)
	p.indent++
	for _, f := range c.Fields {
		p.pad()
		fmt.Fprintf(&p.b, "%s %s", f.Type, f.Name)
		if f.Init != nil {
			p.b.WriteString(" = ")
			p.expr(f.Init, precLowest)
		}
		p.b.WriteString(";\n")
	}
	for i, m := range c.Methods {
		if i > 0 || len(c.Fields) > 0 {
			p.b.WriteByte('\n')
		}
		p.method(m)
	}
	p.indent--
	p.line("}")
}

func (p *printer) method(m *Method) {
	p.pad()
	fmt.Fprintf(&p.b, "%s %s(", m.Ret, m.Name)
	for i, prm := range m.Params {
		if i > 0 {
			p.b.WriteString(", ")
		}
		fmt.Fprintf(&p.b, "%s %s", prm.Type, prm.Name)
	}
	p.b.WriteString(") ")
	p.block(m.Body)
	p.b.WriteByte('\n')
}

func (p *printer) block(b *Block) {
	p.b.WriteString("{\n")
	p.indent++
	for _, s := range b.Stmts {
		p.stmt(s)
	}
	p.indent--
	p.pad()
	p.b.WriteString("}")
}

// stmt prints a statement including indentation and trailing newline.
func (p *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		p.pad()
		p.block(s)
		p.b.WriteByte('\n')
	case *DeclStmt:
		p.pad()
		fmt.Fprintf(&p.b, "%s %s", s.Type, s.Name)
		if s.Init != nil {
			p.b.WriteString(" = ")
			p.expr(s.Init, precLowest)
		}
		p.b.WriteString(";\n")
	case *AssignStmt:
		p.pad()
		p.simpleAssign(s)
		p.b.WriteString(";\n")
	case *IfStmt:
		p.pad()
		p.ifChain(s)
		p.b.WriteByte('\n')
	case *ForStmt:
		p.pad()
		p.b.WriteString("for (")
		switch init := s.Init.(type) {
		case nil:
		case *DeclStmt:
			fmt.Fprintf(&p.b, "%s %s", init.Type, init.Name)
			if init.Init != nil {
				p.b.WriteString(" = ")
				p.expr(init.Init, precLowest)
			}
		case *AssignStmt:
			p.simpleAssign(init)
		default:
			panic(fmt.Sprintf("ast: bad for-init %T", s.Init))
		}
		p.b.WriteString("; ")
		if s.Cond != nil {
			p.expr(s.Cond, precLowest)
		}
		p.b.WriteString("; ")
		if post, ok := s.Post.(*AssignStmt); ok {
			p.simpleAssign(post)
		}
		p.b.WriteString(") ")
		p.block(s.Body)
		p.b.WriteByte('\n')
	case *WhileStmt:
		p.pad()
		p.b.WriteString("while (")
		p.expr(s.Cond, precLowest)
		p.b.WriteString(") ")
		p.block(s.Body)
		p.b.WriteByte('\n')
	case *SwitchStmt:
		p.pad()
		p.b.WriteString("switch (")
		p.expr(s.Tag, precLowest)
		p.b.WriteString(") {\n")
		p.indent++
		for _, c := range s.Cases {
			if c.Values == nil {
				p.line("default:")
			} else {
				for _, v := range c.Values {
					p.line("case %d:", v)
				}
			}
			p.indent++
			for _, bs := range c.Body {
				p.stmt(bs)
			}
			p.indent--
		}
		p.indent--
		p.pad()
		p.b.WriteString("}\n")
	case *BreakStmt:
		p.line("break;")
	case *ContinueStmt:
		p.line("continue;")
	case *ReturnStmt:
		if s.Value == nil {
			p.line("return;")
		} else {
			p.pad()
			p.b.WriteString("return ")
			p.expr(s.Value, precLowest)
			p.b.WriteString(";\n")
		}
	case *ExprStmt:
		p.pad()
		p.expr(s.X, precLowest)
		p.b.WriteString(";\n")
	case *PrintStmt:
		p.pad()
		p.b.WriteString("print(")
		p.expr(s.X, precLowest)
		p.b.WriteString(");\n")
	default:
		panic(fmt.Sprintf("ast: unknown statement %T", s))
	}
}

// simpleAssign prints an assignment without indentation or semicolon
// (shared by statement position and for-clauses).
func (p *printer) simpleAssign(s *AssignStmt) {
	p.expr(s.Target, precLowest)
	fmt.Fprintf(&p.b, " %s ", s.Op)
	p.expr(s.Value, precLowest)
}

// Operator precedence levels, low to high, mirroring Java.
const (
	precLowest  = 0
	precCond    = 1  // ?:
	precLOr     = 2  // ||
	precLAnd    = 3  // &&
	precBitOr   = 4  // |
	precBitXor  = 5  // ^
	precBitAnd  = 6  // &
	precEq      = 7  // == !=
	precRel     = 8  // < <= > >=
	precShift   = 9  // << >> >>>
	precAdd     = 10 // + -
	precMul     = 11 // * / %
	precUnary   = 12
	precPostfix = 13
)

// binPrec returns the precedence of a binary operator.
func binPrec(op BinOp) int {
	switch op {
	case OpLOr:
		return precLOr
	case OpLAnd:
		return precLAnd
	case OpOr:
		return precBitOr
	case OpXor:
		return precBitXor
	case OpAnd:
		return precBitAnd
	case OpEq, OpNe:
		return precEq
	case OpLt, OpLe, OpGt, OpGe:
		return precRel
	case OpShl, OpShr, OpUshr:
		return precShift
	case OpAdd, OpSub:
		return precAdd
	case OpMul, OpDiv, OpRem:
		return precMul
	}
	panic(fmt.Sprintf("ast: bad binop %d", op))
}

// expr prints e, adding parentheses when e's precedence is lower than
// the surrounding context's.
func (p *printer) expr(e Expr, ctx int) {
	switch e := e.(type) {
	case *IntLit:
		fmt.Fprintf(&p.b, "%d", e.Value)
		if e.IsLong {
			p.b.WriteByte('L')
		}
	case *BoolLit:
		fmt.Fprintf(&p.b, "%t", e.Value)
	case *Ident:
		p.b.WriteString(e.Name)
	case *IndexExpr:
		p.expr(e.Arr, precPostfix)
		p.b.WriteByte('[')
		p.expr(e.Index, precLowest)
		p.b.WriteByte(']')
	case *LenExpr:
		p.expr(e.Arr, precPostfix)
		p.b.WriteString(".length")
	case *CallExpr:
		p.b.WriteString(e.Name)
		p.b.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.expr(a, precLowest)
		}
		p.b.WriteByte(')')
	case *UnaryExpr:
		paren := ctx > precUnary
		if paren {
			p.b.WriteByte('(')
		}
		p.b.WriteString(e.Op.String())
		lit, isLit := e.X.(*IntLit)
		switch {
		case e.Op == OpNeg && isLit && isMinLit(lit):
			// The lexer reads the minimum's magnitude (2147483648 or
			// 9223372036854775808L) as the minimum itself, so
			// "-2147483648" parses to a negated minimum: print it so.
			fmt.Fprintf(&p.b, "%d", uint64(-lit.Value))
			if lit.IsLong {
				p.b.WriteByte('L')
			}
		case e.Op == OpNeg && startsWithMinus(e.X):
			// "-(-5)" must not print as "--5".
			p.b.WriteByte('(')
			p.expr(e.X, precUnary)
			p.b.WriteByte(')')
		default:
			p.expr(e.X, precUnary)
		}
		if paren {
			p.b.WriteByte(')')
		}
	case *BinaryExpr:
		prec := binPrec(e.Op)
		paren := ctx > prec
		if paren {
			p.b.WriteByte('(')
		}
		p.expr(e.X, prec)
		fmt.Fprintf(&p.b, " %s ", e.Op)
		// Left associativity: the right child needs one level more.
		p.expr(e.Y, prec+1)
		if paren {
			p.b.WriteByte(')')
		}
	case *CondExpr:
		paren := ctx > precCond
		if paren {
			p.b.WriteByte('(')
		}
		p.expr(e.Cond, precCond+1)
		p.b.WriteString(" ? ")
		p.expr(e.Then, precCond)
		p.b.WriteString(" : ")
		p.expr(e.Else, precCond)
		if paren {
			p.b.WriteByte(')')
		}
	case *NewArrayExpr:
		if e.Elems != nil {
			fmt.Fprintf(&p.b, "new %s[]{", e.Elem)
			for i, el := range e.Elems {
				if i > 0 {
					p.b.WriteString(", ")
				}
				p.expr(el, precLowest)
			}
			p.b.WriteByte('}')
		} else {
			fmt.Fprintf(&p.b, "new %s[", e.Elem)
			p.expr(e.Len, precLowest)
			p.b.WriteByte(']')
		}
	case *CastExpr:
		paren := ctx > precUnary
		if paren {
			p.b.WriteByte('(')
		}
		fmt.Fprintf(&p.b, "(%s)", e.To)
		p.expr(e.X, precUnary)
		if paren {
			p.b.WriteByte(')')
		}
	default:
		panic(fmt.Sprintf("ast: unknown expression %T", e))
	}
}

// isMinLit reports whether lit is the minimum value of its type.
func isMinLit(lit *IntLit) bool {
	if lit.IsLong {
		return lit.Value == math.MinInt64
	}
	return lit.Value == math.MinInt32
}

// startsWithMinus reports whether e's printed form begins with '-'.
func startsWithMinus(e Expr) bool {
	switch e := e.(type) {
	case *IntLit:
		return e.Value < 0
	case *UnaryExpr:
		return e.Op == OpNeg
	}
	return false
}

// ifChain prints "if (...) {...} else if ... else {...}" without
// leading indentation or trailing newline.
func (p *printer) ifChain(s *IfStmt) {
	p.b.WriteString("if (")
	p.expr(s.Cond, precLowest)
	p.b.WriteString(") ")
	p.block(s.Then)
	switch e := s.Else.(type) {
	case nil:
	case *IfStmt:
		p.b.WriteString(" else ")
		p.ifChain(e)
	case *Block:
		p.b.WriteString(" else ")
		p.block(e)
	default:
		panic(fmt.Sprintf("ast: bad else %T", s.Else))
	}
}
