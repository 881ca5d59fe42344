package bytecode

import (
	"fmt"

	"artemis/internal/lang/ast"
	"artemis/internal/lang/sem"
)

// Compile lowers a type-checked program to bytecode. The tree must
// have been analyzed by sem (expression types and resolutions filled
// in).
func Compile(info *sem.Info) (*Program, error) {
	return compile(info, nil, nil)
}

// MustCompile compiles a program known to be valid, panicking on error.
func MustCompile(info *sem.Info) *Program {
	p, err := Compile(info)
	if err != nil {
		panic(fmt.Sprintf("bytecode: internal compile error: %v", err))
	}
	return p
}

// CompileDelta lowers a mutant program using its seed's compiled
// program as a method-granular cache: methods whose bodies the
// mutation left untouched (not in changed) reuse the seed's compiled
// and verified *Method objects outright; only changed methods are
// lowered and verified anew.
//
// Reuse is sound because JoNM never renames, reorders, or re-signs
// methods and never edits existing fields — it only rewrites method
// bodies and appends fresh fields. Method and field indices are
// therefore stable between seed and mutant, which is asserted below
// rather than assumed. Per-method verification depends on other
// methods only through NParams/Ret (both stable), so a reused method's
// verification verdict and MaxStack carry over unchanged, and the
// result is instruction-identical to a cold Compile of the mutant.
//
// The synthetic <clinit> is reused only when no fields were appended:
// a new field with an initializer (MI's control field) changes the
// initializer sequence, so <clinit> is recompiled in that case.
func CompileDelta(info *sem.Info, base *Program, changed map[string]bool) (*Program, error) {
	return compile(info, base, changed)
}

// MustCompileDelta is CompileDelta for mutants known to be valid
// (JoNM output); it panics on error.
func MustCompileDelta(info *sem.Info, base *Program, changed map[string]bool) *Program {
	p, err := CompileDelta(info, base, changed)
	if err != nil {
		panic(fmt.Sprintf("bytecode: internal delta compile error: %v", err))
	}
	return p
}

// compile is the one lowering driver; with no base (Compile) it has
// nothing to reuse and lowers and verifies every method.
func compile(info *sem.Info, base *Program, changed map[string]bool) (*Program, error) {
	cls := info.Prog.Class
	if base != nil {
		if err := checkStable(cls, base); err != nil {
			return nil, err
		}
	}
	p := &Program{ClassName: cls.Name, MainIndex: -1, ClinitIndex: -1}
	for _, f := range cls.Fields {
		p.Fields = append(p.Fields, Field{Name: f.Name, Type: f.Type})
	}

	var fresh []*Method
	for i, m := range cls.Methods {
		if m.Name == "main" {
			p.MainIndex = i
		}
		if base != nil && !changed[m.Name] {
			bm := base.Methods[i]
			if bm.NParams != len(m.Params) || !bm.Ret.Equal(m.Ret) {
				return nil, fmt.Errorf("bytecode: delta compile: signature of %s changed", m.Name)
			}
			p.Methods = append(p.Methods, bm)
			continue
		}
		cm, err := compileMethod(info, m, i)
		if err != nil {
			return nil, err
		}
		p.Methods = append(p.Methods, cm)
		fresh = append(fresh, cm)
	}
	if p.MainIndex < 0 {
		return nil, fmt.Errorf("bytecode: no main method")
	}

	if base != nil && len(cls.Fields) == len(base.Fields) {
		// No fields appended: the initializer sequence is the seed's.
		if base.ClinitIndex >= 0 {
			p.ClinitIndex = base.ClinitIndex
			p.Methods = append(p.Methods, base.Methods[base.ClinitIndex])
		}
	} else if cl := compileClinit(cls); cl != nil {
		cl.Index = len(p.Methods)
		p.ClinitIndex = cl.Index
		p.Methods = append(p.Methods, cl)
		fresh = append(fresh, cl)
	}

	for _, m := range fresh {
		if err := verifyMethod(p, m); err != nil {
			return nil, fmt.Errorf("bytecode: method %s: %w", m.Name, err)
		}
	}
	return p, nil
}

// checkStable asserts the delta invariants against the base program:
// the same methods in the same order, and the base's fields as a
// prefix, so method and field indices are stable.
func checkStable(cls *ast.Class, base *Program) error {
	nbase := len(base.Methods)
	if base.ClinitIndex >= 0 {
		nbase--
	}
	if len(cls.Methods) != nbase {
		return fmt.Errorf("bytecode: delta compile: method count changed (%d -> %d)", nbase, len(cls.Methods))
	}
	for i, m := range cls.Methods {
		if bm := base.Methods[i]; bm.Name != m.Name {
			return fmt.Errorf("bytecode: delta compile: method %d renamed (%s -> %s)", i, bm.Name, m.Name)
		}
	}
	if len(cls.Fields) < len(base.Fields) {
		return fmt.Errorf("bytecode: delta compile: fields removed (%d -> %d)", len(base.Fields), len(cls.Fields))
	}
	for i, bf := range base.Fields {
		if cls.Fields[i].Name != bf.Name || !cls.Fields[i].Type.Equal(bf.Type) {
			return fmt.Errorf("bytecode: delta compile: field %d changed (%s -> %s)", i, bf.Name, cls.Fields[i].Name)
		}
	}
	return nil
}

// compileClinit builds the synthetic field-initializer method, or
// returns nil when no field has an explicit initializer. Array fields
// without initializers are defaulted to empty arrays by the VM itself.
func compileClinit(cls *ast.Class) *Method {
	any := false
	for _, f := range cls.Fields {
		if f.Init != nil {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	c := &compiler{m: &Method{Name: "<clinit>", Ret: ast.TypeVoid}}
	for i, f := range cls.Fields {
		if f.Init == nil {
			continue
		}
		c.expr(f.Init)
		c.emit(Instr{Op: OpPutField, A: int64(i)})
	}
	c.emit(Instr{Op: OpRet})
	return c.m
}

type loopCtx struct {
	breakL    *label
	continueL *label // nil for switch contexts
}

type compiler struct {
	info *sem.Info
	m    *Method

	loops     []loopCtx // innermost last; switch entries have nil continueL
	loopDepth int
}

type label struct {
	pc      int   // -1 until bound
	patches []int // instruction indices whose A awaits this label
}

func compileMethod(info *sem.Info, m *ast.Method, index int) (*Method, error) {
	mi := info.Methods[m.Name]
	c := &compiler{
		info: info,
		m: &Method{
			Name:    m.Name,
			Index:   index,
			NParams: len(m.Params),
			Ret:     m.Ret,
			Locals:  append([]ast.Type(nil), mi.Locals...),
		},
	}
	c.block(m.Body)
	if m.Ret.Kind == ast.KindVoid {
		c.emit(Instr{Op: OpRet})
	} else {
		// Unreachable backstop (sem guarantees all paths return);
		// keeps the interpreter loop total.
		c.emit(Instr{Op: OpConst, A: 0})
		c.emit(Instr{Op: OpRetV})
	}
	return c.m, nil
}

func (c *compiler) emit(in Instr) int {
	c.m.Code = append(c.m.Code, in)
	return len(c.m.Code) - 1
}

func (c *compiler) newLabel() *label { return &label{pc: -1} }

// jump emits a branch instruction whose target is l.
func (c *compiler) jump(in Instr, l *label) {
	if l.pc >= 0 {
		in.A = int64(l.pc)
		c.emit(in)
		return
	}
	in.A = -1
	idx := c.emit(in)
	l.patches = append(l.patches, idx)
}

// bind sets l to the current pc and patches pending branches.
func (c *compiler) bind(l *label) {
	l.pc = len(c.m.Code)
	for _, idx := range l.patches {
		c.m.Code[idx].A = int64(l.pc)
	}
	l.patches = nil
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (c *compiler) block(b *ast.Block) {
	for _, s := range b.Stmts {
		c.stmt(s)
	}
}

func (c *compiler) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.Block:
		c.block(s)
	case *ast.DeclStmt:
		if s.Init != nil {
			c.expr(s.Init)
		} else {
			c.emit(Instr{Op: OpConst, A: 0})
		}
		c.emit(Instr{Op: OpStore, A: int64(s.Slot)})
	case *ast.AssignStmt:
		c.assign(s)
	case *ast.IfStmt:
		elseL, endL := c.newLabel(), c.newLabel()
		c.condJump(s.Cond, false, elseL)
		c.block(s.Then)
		if s.Else != nil {
			c.jump(Instr{Op: OpGoto}, endL)
			c.bind(elseL)
			c.stmt(s.Else)
			c.bind(endL)
		} else {
			c.bind(elseL)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		c.loop(s.Cond, s.Body, s.Post)
	case *ast.WhileStmt:
		c.loop(s.Cond, s.Body, nil)
	case *ast.SwitchStmt:
		c.switchStmt(s)
	case *ast.BreakStmt:
		c.jump(Instr{Op: OpGoto}, c.loops[len(c.loops)-1].breakL)
	case *ast.ContinueStmt:
		for i := len(c.loops) - 1; i >= 0; i-- {
			if c.loops[i].continueL != nil {
				c.jump(Instr{Op: OpGoto}, c.loops[i].continueL)
				return
			}
		}
		panic("bytecode: continue outside loop (sem should reject)")
	case *ast.ReturnStmt:
		if s.Value == nil {
			c.emit(Instr{Op: OpRet})
		} else {
			c.expr(s.Value)
			c.emit(Instr{Op: OpRetV})
		}
	case *ast.ExprStmt:
		call := s.X.(*ast.CallExpr)
		c.expr(call)
		if call.Type().Kind != ast.KindVoid {
			c.emit(Instr{Op: OpPop})
		}
	case *ast.PrintStmt:
		c.expr(s.X)
		c.emit(Instr{Op: OpPrint, Kind: uint8(s.X.Type().Kind)})
	default:
		panic(fmt.Sprintf("bytecode: unknown statement %T", s))
	}
}

// loop compiles the canonical loop shape shared by for and while:
//
//	head: if !cond goto exit
//	      body
//	cont: post
//	      loopback head
//	exit:
//
// All back edges are OpLoopBack instructions, so the VM can attribute
// back-edge counter increments and OSR entry points to loop ids.
func (c *compiler) loop(cond ast.Expr, body *ast.Block, post ast.Stmt) {
	loopID := len(c.m.Loops)
	c.loopDepth++
	c.m.Loops = append(c.m.Loops, LoopInfo{ID: loopID, HeadPC: len(c.m.Code), Depth: c.loopDepth})

	headPC := len(c.m.Code)
	exitL, contL := c.newLabel(), c.newLabel()
	if cond != nil {
		c.condJump(cond, false, exitL)
	}
	c.loops = append(c.loops, loopCtx{breakL: exitL, continueL: contL})
	c.block(body)
	c.loops = c.loops[:len(c.loops)-1]
	c.bind(contL)
	if post != nil {
		c.stmt(post)
	}
	c.emit(Instr{Op: OpLoopBack, A: int64(headPC), B: int32(loopID)})
	c.bind(exitL)
	c.loopDepth--
}

func (c *compiler) switchStmt(s *ast.SwitchStmt) {
	c.expr(s.Tag)
	tableIdx := len(c.m.Switches)
	c.m.Switches = append(c.m.Switches, SwitchTable{})
	c.emit(Instr{Op: OpSwitch, A: int64(tableIdx)})

	exitL := c.newLabel()
	c.loops = append(c.loops, loopCtx{breakL: exitL})
	table := SwitchTable{Default: -1}
	for _, arm := range s.Cases {
		pc := len(c.m.Code)
		if arm.Values == nil {
			table.Default = pc
		} else {
			for _, v := range arm.Values {
				table.Entries = append(table.Entries, SwitchEntry{Value: v, Target: pc})
			}
		}
		for _, bs := range arm.Body {
			c.stmt(bs)
		}
	}
	c.loops = c.loops[:len(c.loops)-1]
	c.bind(exitL)
	if table.Default < 0 {
		table.Default = exitL.pc
	}
	c.m.Switches[tableIdx] = table
}

func (c *compiler) assign(s *ast.AssignStmt) {
	switch t := s.Target.(type) {
	case *ast.Ident:
		if s.Op == ast.AsnSet {
			c.expr(s.Value)
			c.storeIdent(t)
			return
		}
		c.loadIdent(t)
		c.compoundOp(s, t.Type())
		c.storeIdent(t)
	case *ast.IndexExpr:
		if s.Op == ast.AsnSet {
			c.expr(t.Arr)
			c.expr(t.Index)
			c.expr(s.Value)
			c.emit(Instr{Op: OpAStore})
			return
		}
		c.expr(t.Arr)
		c.expr(t.Index)
		c.emit(Instr{Op: OpDup2})
		c.emit(Instr{Op: OpALoad})
		c.compoundOp(s, t.Type())
		c.emit(Instr{Op: OpAStore})
	default:
		panic(fmt.Sprintf("bytecode: bad assignment target %T", s.Target))
	}
}

// compoundOp assumes the current target value is on the stack,
// evaluates the RHS, applies the compound operator, and narrows the
// result back to the target type (Java compound-assignment implicit
// cast).
func (c *compiler) compoundOp(s *ast.AssignStmt, targetType ast.Type) {
	c.expr(s.Value)
	op := s.Op.BinOp()
	var wide bool
	if op.IsShift() {
		// Shift width follows the left operand (the target).
		wide = targetType.Kind == ast.KindLong
	} else {
		wide = targetType.Kind == ast.KindLong || s.Value.Type().Kind == ast.KindLong
	}
	c.emit(Instr{Op: withWidth(binInstrOp(op), wide)})
	if targetType.Kind == ast.KindInt && wide {
		c.emit(Instr{Op: OpL2I})
	}
}

func (c *compiler) loadIdent(t *ast.Ident) {
	switch t.Ref {
	case ast.RefLocal:
		c.emit(Instr{Op: OpLoad, A: int64(t.Index)})
	case ast.RefField:
		c.emit(Instr{Op: OpGetField, A: int64(t.Index)})
	default:
		panic("bytecode: unresolved identifier " + t.Name)
	}
}

func (c *compiler) storeIdent(t *ast.Ident) {
	switch t.Ref {
	case ast.RefLocal:
		c.emit(Instr{Op: OpStore, A: int64(t.Index)})
	case ast.RefField:
		c.emit(Instr{Op: OpPutField, A: int64(t.Index)})
	default:
		panic("bytecode: unresolved identifier " + t.Name)
	}
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// binInstrOp returns the long form of the arithmetic opcode for op.
func binInstrOp(op ast.BinOp) Op {
	switch op {
	case ast.OpAdd:
		return OpAddL
	case ast.OpSub:
		return OpSubL
	case ast.OpMul:
		return OpMulL
	case ast.OpDiv:
		return OpDivL
	case ast.OpRem:
		return OpRemL
	case ast.OpAnd:
		return OpAndL
	case ast.OpOr:
		return OpOrL
	case ast.OpXor:
		return OpXorL
	case ast.OpShl:
		return OpShlL
	case ast.OpShr:
		return OpShrL
	case ast.OpUshr:
		return OpUshrL
	}
	panic(fmt.Sprintf("bytecode: op %v is not an arithmetic instruction", op))
}

func condOf(op ast.BinOp) Cond {
	switch op {
	case ast.OpEq:
		return CondEQ
	case ast.OpNe:
		return CondNE
	case ast.OpLt:
		return CondLT
	case ast.OpLe:
		return CondLE
	case ast.OpGt:
		return CondGT
	case ast.OpGe:
		return CondGE
	}
	panic("bytecode: not a comparison")
}

// expr compiles e, leaving its value on the stack.
func (c *compiler) expr(e ast.Expr) {
	switch e := e.(type) {
	case *ast.IntLit:
		v := e.Value
		if !e.IsLong {
			v = int64(int32(v))
		}
		c.emit(Instr{Op: OpConst, A: v})
	case *ast.BoolLit:
		v := int64(0)
		if e.Value {
			v = 1
		}
		c.emit(Instr{Op: OpConst, A: v})
	case *ast.Ident:
		c.loadIdent(e)
	case *ast.IndexExpr:
		c.expr(e.Arr)
		c.expr(e.Index)
		c.emit(Instr{Op: OpALoad})
	case *ast.LenExpr:
		c.expr(e.Arr)
		c.emit(Instr{Op: OpArrLen})
	case *ast.CallExpr:
		for _, a := range e.Args {
			c.expr(a)
		}
		op := OpCall
		if e.Type().Kind == ast.KindVoid {
			op = OpCallV
		}
		c.emit(Instr{Op: op, A: int64(e.MethodIndex), B: int32(len(e.Args))})
	case *ast.UnaryExpr:
		switch e.Op {
		case ast.OpNeg:
			c.expr(e.X)
			c.emit(Instr{Op: withWidth(OpNegL, e.Type().Kind == ast.KindLong)})
		case ast.OpBitNot:
			c.expr(e.X)
			c.emit(Instr{Op: withWidth(OpBitNotL, e.Type().Kind == ast.KindLong)})
		case ast.OpNot:
			c.expr(e.X)
			c.emit(Instr{Op: OpConst, A: 0})
			c.emit(Instr{Op: OpCmpEQ})
		}
	case *ast.BinaryExpr:
		op := e.Op
		switch {
		case op.IsLogical():
			c.boolValue(e)
		case op.IsComparison():
			c.expr(e.X)
			c.expr(e.Y)
			c.emit(Instr{Op: cmpOp(condOf(op))})
		default:
			c.expr(e.X)
			c.expr(e.Y)
			var wide bool
			if op.IsShift() {
				wide = e.X.Type().Kind == ast.KindLong
			} else {
				wide = e.Type().Kind == ast.KindLong
			}
			c.emit(Instr{Op: withWidth(binInstrOp(op), wide)})
		}
	case *ast.CondExpr:
		elseL, endL := c.newLabel(), c.newLabel()
		c.condJump(e.Cond, false, elseL)
		c.expr(e.Then)
		c.jump(Instr{Op: OpGoto}, endL)
		c.bind(elseL)
		c.expr(e.Else)
		c.bind(endL)
	case *ast.NewArrayExpr:
		if e.Elems != nil {
			c.emit(Instr{Op: OpConst, A: int64(len(e.Elems))})
			c.emit(Instr{Op: OpNewArr, Kind: uint8(e.Elem)})
			for i, el := range e.Elems {
				c.emit(Instr{Op: OpDup})
				c.emit(Instr{Op: OpConst, A: int64(i)})
				c.expr(el)
				c.emit(Instr{Op: OpAStore})
			}
		} else {
			c.expr(e.Len)
			c.emit(Instr{Op: OpNewArr, Kind: uint8(e.Elem)})
		}
	case *ast.CastExpr:
		c.expr(e.X)
		if e.To.Kind == ast.KindInt && e.X.Type().Kind == ast.KindLong {
			c.emit(Instr{Op: OpL2I})
		}
		// int -> long widening is a no-op under the sign-extended
		// value model.
	default:
		panic(fmt.Sprintf("bytecode: unknown expression %T", e))
	}
}

// boolValue materializes a boolean expression as 0/1 using branches
// (used for && and || which must short-circuit).
func (c *compiler) boolValue(e ast.Expr) {
	falseL, endL := c.newLabel(), c.newLabel()
	c.condJump(e, false, falseL)
	c.emit(Instr{Op: OpConst, A: 1})
	c.jump(Instr{Op: OpGoto}, endL)
	c.bind(falseL)
	c.emit(Instr{Op: OpConst, A: 0})
	c.bind(endL)
}

// condJump compiles e as a condition: jump to l when e == want,
// fall through otherwise. Fuses comparisons into OpIfCmp and expands
// short-circuit operators.
func (c *compiler) condJump(e ast.Expr, want bool, l *label) {
	switch e := e.(type) {
	case *ast.BoolLit:
		if e.Value == want {
			c.jump(Instr{Op: OpGoto}, l)
		}
		return
	case *ast.UnaryExpr:
		if e.Op == ast.OpNot {
			c.condJump(e.X, !want, l)
			return
		}
	case *ast.BinaryExpr:
		switch {
		case e.Op.IsComparison():
			c.expr(e.X)
			c.expr(e.Y)
			cond := condOf(e.Op)
			if !want {
				cond = cond.Negate()
			}
			c.jump(Instr{Op: ifCmpOp(cond)}, l)
			return
		case e.Op == ast.OpLAnd:
			if want {
				// jump to l iff both true
				skip := c.newLabel()
				c.condJump(e.X, false, skip)
				c.condJump(e.Y, true, l)
				c.bind(skip)
			} else {
				// jump to l iff either false
				c.condJump(e.X, false, l)
				c.condJump(e.Y, false, l)
			}
			return
		case e.Op == ast.OpLOr:
			if want {
				c.condJump(e.X, true, l)
				c.condJump(e.Y, true, l)
			} else {
				skip := c.newLabel()
				c.condJump(e.X, true, skip)
				c.condJump(e.Y, false, l)
				c.bind(skip)
			}
			return
		}
	}
	// Generic: evaluate to 0/1 and branch.
	c.expr(e)
	op := OpIfTrue
	if !want {
		op = OpIfFalse
	}
	c.jump(Instr{Op: op}, l)
}
