// Package bytecode defines the stack-based bytecode of our language
// VM and the compiler from type-checked MJ ASTs to bytecode.
//
// The ISA is deliberately JVM-shaped: an operand stack, local slots,
// field access, checked array operations, fused compare-and-branch
// instructions, and a dedicated loop back-edge instruction
// (OpLoopBack) that the VM uses to drive back-edge profiling counters
// and OSR compilation, mirroring how real JVMs attribute hotness to
// loop back-jumps (Section 3.1 of the paper).
//
// Value model: every stack slot and local is an int64 word. int values
// are stored sign-extended (so int->long widening is a no-op), boolean
// is 0/1, and array references are opaque positive heap handles.
package bytecode

import (
	"fmt"
	"strings"

	"artemis/internal/lang/ast"
)

// Op enumerates bytecode opcodes. Every per-step decision the
// interpreter would otherwise make from instruction flags is folded
// into the opcode: arithmetic comes in a long (64-bit) and an int
// (32-bit wrapping) form, compares and compare-and-branch come in one
// form per condition, and a call knows whether its callee returns a
// value. The zero Op is invalid, so a zeroed Instr never verifies.
type Op uint8

const (
	OpConst Op = iota + 1 // push A
	OpLoad                // push locals[A]
	OpStore               // locals[A] = pop
	OpPop                 // drop top
	OpDup                 // duplicate top
	OpDup2                // duplicate top two words (a b -> a b a b)

	OpGetField // push fields[A]
	OpPutField // fields[A] = pop

	OpNewArr // pop len, push new array handle (elem kind in Kind)
	OpALoad  // pop idx, ref; push ref[idx] (bounds-checked)
	OpAStore // pop val, idx, ref; ref[idx] = val (bounds-checked)
	OpArrLen // pop ref, push length

	// Binary arithmetic: pop b, a; push a OP b. Each long form is
	// directly followed by its int twin. Division and remainder raise
	// ArithmeticException on a zero divisor; shift counts are masked
	// &63 / &31 as in Java.
	OpAddL
	OpAddI
	OpSubL
	OpSubI
	OpMulL
	OpMulI
	OpDivL
	OpDivI
	OpRemL
	OpRemI
	OpAndL
	OpAndI
	OpOrL
	OpOrI
	OpXorL
	OpXorI
	OpShlL
	OpShlI
	OpShrL
	OpShrI
	OpUshrL
	OpUshrI

	// Unary: pop a, push -a (wrapping) / ^a / sign-extended int32(a)
	// (narrowing cast).
	OpNegL
	OpNegI
	OpBitNotL
	OpBitNotI
	OpL2I

	// Compares: pop b, a; push 1 if a cond b else 0. One opcode per
	// Cond, in Cond order.
	OpCmpEQ
	OpCmpNE
	OpCmpLT
	OpCmpLE
	OpCmpGT
	OpCmpGE

	OpGoto    // jump to A
	OpIfTrue  // pop v; jump to A if v != 0
	OpIfFalse // pop v; jump to A if v == 0

	// Compare-and-branch: pop b, a; jump to A if a cond b. One opcode
	// per Cond, in Cond order.
	OpIfCmpEQ
	OpIfCmpNE
	OpIfCmpLT
	OpIfCmpLE
	OpIfCmpGT
	OpIfCmpGE

	OpSwitch   // pop v; jump via Switches[A]
	OpLoopBack // back-edge: jump to A, the head of loop B (profiled)

	OpCall  // call Methods[A] with B args; push its result
	OpCallV // call void Methods[A] with B args
	OpRet   // return void
	OpRetV  // pop v, return v

	OpPrint // pop v, append to output (formatted per Kind)
)

// flow says where control goes after an instruction.
type flow uint8

const (
	flowNext   flow = iota // to pc+1
	flowJump               // to A
	flowBranch             // to A or to pc+1
	flowSwitch             // through Switches[A]
	flowReturn             // out of the method
)

// operand says what an instruction's A (or Kind) names.
type operand uint8

const (
	argNone   operand = iota
	argConst          // A is a constant
	argLocal          // A is a local slot
	argField          // A is a field index
	argPC             // A is a branch target
	argTable          // A is a switch table index
	argMethod         // A is a method index and B its argument count
	argKind           // Kind is the value kind (int, long or boolean)
)

// opInfo is the one description of an opcode that the verifier, stack
// depth analysis, successor walk and disassembler share. A call pops
// B words instead of pops.
type opInfo struct {
	name         string
	pops, pushes int8
	flow         flow
	arg          operand
}

var opTable = [...]opInfo{
	OpConst: {"const", 0, 1, flowNext, argConst},
	OpLoad:  {"load", 0, 1, flowNext, argLocal},
	OpStore: {"store", 1, 0, flowNext, argLocal},
	OpPop:   {"pop", 1, 0, flowNext, argNone},
	OpDup:   {"dup", 1, 2, flowNext, argNone},
	OpDup2:  {"dup2", 2, 4, flowNext, argNone},

	OpGetField: {"getfield", 0, 1, flowNext, argField},
	OpPutField: {"putfield", 1, 0, flowNext, argField},

	OpNewArr: {"newarr", 1, 1, flowNext, argKind},
	OpALoad:  {"aload", 2, 1, flowNext, argNone},
	OpAStore: {"astore", 3, 0, flowNext, argNone},
	OpArrLen: {"arrlen", 1, 1, flowNext, argNone},

	OpAddL: {"add.l", 2, 1, flowNext, argNone}, OpAddI: {"add", 2, 1, flowNext, argNone},
	OpSubL: {"sub.l", 2, 1, flowNext, argNone}, OpSubI: {"sub", 2, 1, flowNext, argNone},
	OpMulL: {"mul.l", 2, 1, flowNext, argNone}, OpMulI: {"mul", 2, 1, flowNext, argNone},
	OpDivL: {"div.l", 2, 1, flowNext, argNone}, OpDivI: {"div", 2, 1, flowNext, argNone},
	OpRemL: {"rem.l", 2, 1, flowNext, argNone}, OpRemI: {"rem", 2, 1, flowNext, argNone},
	OpAndL: {"and.l", 2, 1, flowNext, argNone}, OpAndI: {"and", 2, 1, flowNext, argNone},
	OpOrL: {"or.l", 2, 1, flowNext, argNone}, OpOrI: {"or", 2, 1, flowNext, argNone},
	OpXorL: {"xor.l", 2, 1, flowNext, argNone}, OpXorI: {"xor", 2, 1, flowNext, argNone},
	OpShlL: {"shl.l", 2, 1, flowNext, argNone}, OpShlI: {"shl", 2, 1, flowNext, argNone},
	OpShrL: {"shr.l", 2, 1, flowNext, argNone}, OpShrI: {"shr", 2, 1, flowNext, argNone},
	OpUshrL: {"ushr.l", 2, 1, flowNext, argNone}, OpUshrI: {"ushr", 2, 1, flowNext, argNone},

	OpNegL:    {"neg.l", 1, 1, flowNext, argNone},
	OpNegI:    {"neg", 1, 1, flowNext, argNone},
	OpBitNotL: {"bitnot.l", 1, 1, flowNext, argNone},
	OpBitNotI: {"bitnot", 1, 1, flowNext, argNone},
	OpL2I:     {"l2i", 1, 1, flowNext, argNone},

	OpCmpEQ: {"cmpset.eq", 2, 1, flowNext, argNone},
	OpCmpNE: {"cmpset.ne", 2, 1, flowNext, argNone},
	OpCmpLT: {"cmpset.lt", 2, 1, flowNext, argNone},
	OpCmpLE: {"cmpset.le", 2, 1, flowNext, argNone},
	OpCmpGT: {"cmpset.gt", 2, 1, flowNext, argNone},
	OpCmpGE: {"cmpset.ge", 2, 1, flowNext, argNone},

	OpGoto:    {"goto", 0, 0, flowJump, argPC},
	OpIfTrue:  {"iftrue", 1, 0, flowBranch, argPC},
	OpIfFalse: {"iffalse", 1, 0, flowBranch, argPC},

	OpIfCmpEQ: {"ifcmp.eq", 2, 0, flowBranch, argPC},
	OpIfCmpNE: {"ifcmp.ne", 2, 0, flowBranch, argPC},
	OpIfCmpLT: {"ifcmp.lt", 2, 0, flowBranch, argPC},
	OpIfCmpLE: {"ifcmp.le", 2, 0, flowBranch, argPC},
	OpIfCmpGT: {"ifcmp.gt", 2, 0, flowBranch, argPC},
	OpIfCmpGE: {"ifcmp.ge", 2, 0, flowBranch, argPC},

	OpSwitch:   {"switch", 1, 0, flowSwitch, argTable},
	OpLoopBack: {"loopback", 0, 0, flowJump, argPC},

	OpCall:  {"call", 0, 1, flowNext, argMethod},
	OpCallV: {"call", 0, 0, flowNext, argMethod},
	OpRet:   {"ret", 0, 0, flowReturn, argNone},
	OpRetV:  {"retv", 1, 0, flowReturn, argNone},

	OpPrint: {"print", 1, 0, flowNext, argKind},
}

// valid reports whether op is a defined opcode.
func (op Op) valid() bool { return int(op) < len(opTable) && opTable[op].name != "" }

func (op Op) String() string {
	if op.valid() {
		return opTable[op].name
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// EndsBlock reports whether op transfers control anywhere but to the
// next instruction: a jump, a branch, a switch or a return.
func (op Op) EndsBlock() bool { return opTable[op].flow != flowNext }

// Cond returns the condition tested by an OpCmp* or OpIfCmp* opcode.
func (op Op) Cond() Cond {
	if op >= OpIfCmpEQ {
		return Cond(op - OpIfCmpEQ)
	}
	return Cond(op - OpCmpEQ)
}

// cmpOp and ifCmpOp return the compare and the compare-and-branch
// opcode testing c.
func cmpOp(c Cond) Op   { return OpCmpEQ + Op(c) }
func ifCmpOp(c Cond) Op { return OpIfCmpEQ + Op(c) }

// withWidth returns the long form of an arithmetic opcode pair when
// wide, and its int twin otherwise.
func withWidth(long Op, wide bool) Op {
	if wide {
		return long
	}
	return long + 1
}

// Cond enumerates the comparison conditions of the OpCmp* and OpIfCmp*
// opcodes.
type Cond uint8

const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
)

var condNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

func (c Cond) String() string { return condNames[c] }

// Negate returns the opposite condition.
func (c Cond) Negate() Cond {
	switch c {
	case CondEQ:
		return CondNE
	case CondNE:
		return CondEQ
	case CondLT:
		return CondGE
	case CondLE:
		return CondGT
	case CondGT:
		return CondLE
	case CondGE:
		return CondLT
	}
	panic("bytecode: bad cond")
}

// Eval applies the condition to two values.
func (c Cond) Eval(a, b int64) bool {
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return a < b
	case CondLE:
		return a <= b
	case CondGT:
		return a > b
	case CondGE:
		return a >= b
	}
	panic("bytecode: bad cond")
}

// Instr is one bytecode instruction: the dense 16-byte word the
// compiler emits, the verifier checks, and the interpreter dispatches
// on.
type Instr struct {
	A    int64 // immediate / slot / field / pc target / method or table index
	B    int32 // loop id (OpLoopBack) / argument count (OpCall, OpCallV)
	Op   Op
	Kind uint8 // ast.Kind: element kind for OpNewArr, value kind for OpPrint
}

func (in Instr) String() string {
	switch {
	case !in.Op.valid():
		return in.Op.String()
	case opTable[in.Op].arg == argNone:
		return opTable[in.Op].name
	case opTable[in.Op].arg == argKind:
		return opTable[in.Op].name + " " + ast.Kind(in.Kind).String()
	}
	return fmt.Sprintf("%s %d", opTable[in.Op].name, in.A)
}

// stackEffect returns how many operand-stack words in pops and pushes.
func (in Instr) stackEffect() (pops, pushes int) {
	info := &opTable[in.Op]
	if info.arg == argMethod {
		return int(in.B), int(info.pushes)
	}
	return int(info.pops), int(info.pushes)
}

// SwitchEntry is one (value, target) pair of a switch table.
type SwitchEntry struct {
	Value  int64
	Target int
}

// SwitchTable is the jump table of one OpSwitch instruction.
type SwitchTable struct {
	Entries []SwitchEntry
	Default int
}

// Lookup returns the target pc for v.
func (t *SwitchTable) Lookup(v int64) int {
	for _, e := range t.Entries {
		if e.Value == v {
			return e.Target
		}
	}
	return t.Default
}

// LoopInfo describes one source loop in a method.
type LoopInfo struct {
	ID     int
	HeadPC int // pc of the loop header (OpLoopBack target)
	Depth  int // nesting depth, 1 = outermost
}

// Method is one compiled method.
type Method struct {
	Name     string
	Index    int
	NParams  int
	Ret      ast.Type
	Locals   []ast.Type // slot types; params in slots 0..NParams-1
	Code     []Instr
	Switches []SwitchTable
	Loops    []LoopInfo
	MaxStack int
}

// Succs appends the control-flow successors of the instruction at pc
// to dst and returns the extended slice: a branch target first, then a
// switch's default before its entries, then the fall-through. A return
// has none. It is the one successor walk the verifier, stack depth
// analysis and JIT front end share, and allocates only to grow dst.
func (m *Method) Succs(dst []int, pc int) []int {
	in := m.Code[pc]
	switch opTable[in.Op].flow {
	case flowNext:
		dst = append(dst, pc+1)
	case flowJump:
		dst = append(dst, int(in.A))
	case flowBranch:
		dst = append(dst, int(in.A), pc+1)
	case flowSwitch:
		t := &m.Switches[in.A]
		dst = append(dst, t.Default)
		for _, e := range t.Entries {
			dst = append(dst, e.Target)
		}
	}
	return dst
}

// Field describes one class field.
type Field struct {
	Name string
	Type ast.Type
}

// Program is a fully compiled MJ program.
type Program struct {
	ClassName string
	Fields    []Field
	Methods   []*Method
	MainIndex int
	// ClinitIndex is the synthetic field-initializer method run before
	// main, or -1 when all fields use default values.
	ClinitIndex int
}

// Method returns the method with the given name, or nil.
func (p *Program) Method(name string) *Method {
	for _, m := range p.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Disasm returns a textual disassembly of the whole program.
func Disasm(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "class %s\n", p.ClassName)
	for i, f := range p.Fields {
		fmt.Fprintf(&b, "  field %d: %s %s\n", i, f.Type, f.Name)
	}
	for _, m := range p.Methods {
		fmt.Fprintf(&b, "\nmethod %d: %s %s (%d params, %d locals, maxstack %d)\n",
			m.Index, m.Ret, m.Name, m.NParams, len(m.Locals), m.MaxStack)
		for pc, in := range m.Code {
			fmt.Fprintf(&b, "  %4d: %s\n", pc, in)
		}
		for i, t := range m.Switches {
			fmt.Fprintf(&b, "  table %d: default=%d", i, t.Default)
			for _, e := range t.Entries {
				fmt.Fprintf(&b, " %d->%d", e.Value, e.Target)
			}
			b.WriteByte('\n')
		}
		for _, l := range m.Loops {
			fmt.Fprintf(&b, "  loop %d: head=%d depth=%d\n", l.ID, l.HeadPC, l.Depth)
		}
	}
	return b.String()
}
