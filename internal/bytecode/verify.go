package bytecode

import (
	"fmt"

	"artemis/internal/lang/ast"
)

// verifyMethod checks that m is safe to run and computes its MaxStack.
// It is run on everything the compiler produces, and the interpreter
// and the JIT trust what it guarantees without checking again:
//
//   - every pc, reachable or not, holds a defined opcode whose operands
//     are in range: local slots, fields, switch tables, methods, value
//     kinds, and every control-flow successor;
//   - a call's B is its callee's NParams, and OpCall (OpCallV) calls a
//     method that returns a value (returns void); likewise OpRetV
//     (OpRet) only occurs in a method that returns a value (void);
//   - an OpLoopBack's B names a recorded loop whose head is its target;
//   - on every path the operand stack never underflows, has one depth
//     at each pc, and is empty at back-edges (statement boundaries,
//     which OSR depends on) and after returns.
func verifyMethod(p *Program, m *Method) error {
	if len(m.Code) == 0 {
		return fmt.Errorf("empty code")
	}
	if m.NParams > len(m.Locals) {
		return fmt.Errorf("%d params but %d local slots", m.NParams, len(m.Locals))
	}
	succs := make([]int, 0, 8)
	for pc, in := range m.Code {
		if err := checkOperands(p, m, in); err != nil {
			return fmt.Errorf("pc %d: %w", pc, err)
		}
		succs = m.Succs(succs[:0], pc)
		for _, s := range succs {
			if s < 0 || s >= len(m.Code) {
				return fmt.Errorf("pc %d: branch target %d out of range", pc, s)
			}
		}
	}
	_, maxDepth, err := stackDepths(m)
	if err != nil {
		return err
	}
	m.MaxStack = maxDepth
	return nil
}

// checkOperands checks one instruction's opcode and operands.
func checkOperands(p *Program, m *Method, in Instr) error {
	if !in.Op.valid() {
		return fmt.Errorf("unknown opcode %v", in.Op)
	}
	inRange := func(what string, n int) error {
		if in.A < 0 || in.A >= int64(n) {
			return fmt.Errorf("%s %d out of range", what, in.A)
		}
		return nil
	}
	switch opTable[in.Op].arg {
	case argLocal:
		return inRange("local slot", len(m.Locals))
	case argField:
		return inRange("field", len(p.Fields))
	case argTable:
		return inRange("switch table", len(m.Switches))
	case argKind:
		switch ast.Kind(in.Kind) {
		case ast.KindInt, ast.KindLong, ast.KindBoolean:
			return nil
		}
		return fmt.Errorf("bad value kind %d", in.Kind)
	case argMethod:
		if err := inRange("call target", len(p.Methods)); err != nil {
			return err
		}
		callee := p.Methods[in.A]
		if int(in.B) != callee.NParams {
			return fmt.Errorf("call passes %d args, %s takes %d", in.B, callee.Name, callee.NParams)
		}
		if (in.Op == OpCallV) != (callee.Ret.Kind == ast.KindVoid) {
			return fmt.Errorf("%v of %s, which returns %s", in.Op, callee.Name, callee.Ret)
		}
	}
	switch in.Op {
	case OpLoopBack:
		if in.B < 0 || int(in.B) >= len(m.Loops) || int64(m.Loops[in.B].HeadPC) != in.A {
			return fmt.Errorf("back-edge to %d is not the head of loop %d", in.A, in.B)
		}
	case OpRet, OpRetV:
		if (in.Op == OpRet) != (m.Ret.Kind == ast.KindVoid) {
			return fmt.Errorf("%v in a method returning %s", in.Op, m.Ret)
		}
	}
	return nil
}

// StackDepths recomputes the operand stack depth at every pc of a
// verified method (-1 for unreachable code). The JIT front end uses
// this when building SSA and deopt frame states.
func StackDepths(m *Method) []int {
	depth, _, _ := stackDepths(m)
	return depth
}

// stackDepths computes the operand stack depth before every pc (-1 for
// unreachable code) and the maximum depth, propagating each
// instruction's stack effect along its successors. It reports the
// first path on which the stack underflows, joins at two depths, or is
// not empty at a back-edge or after a return. The method's successors
// must be in range.
func stackDepths(m *Method) (depth []int, maxDepth int, err error) {
	depth = make([]int, len(m.Code))
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	work := []int{0}
	succs := make([]int, 0, 8) // on the stack unless a switch outgrows it
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in := m.Code[pc]
		pops, pushes := in.stackEffect()
		d := depth[pc]
		if d < pops {
			return depth, 0, fmt.Errorf("pc %d: stack underflow (%d < %d)", pc, d, pops)
		}
		d += pushes - pops
		maxDepth = max(maxDepth, d)
		if d != 0 && (in.Op == OpLoopBack || opTable[in.Op].flow == flowReturn) {
			return depth, 0, fmt.Errorf("pc %d: %v leaves %d words on the stack", pc, in.Op, d)
		}
		succs = m.Succs(succs[:0], pc)
		for _, s := range succs {
			switch depth[s] {
			case -1:
				depth[s] = d
				work = append(work, s)
			case d:
			default:
				return depth, 0, fmt.Errorf("inconsistent stack depth at pc %d: %d vs %d", s, depth[s], d)
			}
		}
	}
	return depth, maxDepth, nil
}
