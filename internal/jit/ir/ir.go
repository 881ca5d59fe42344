// Package ir defines the SSA intermediate representation of the
// optimizing JIT tier: values in basic blocks with phis, an ordered
// effect list per block (memory operations keep their relative order),
// explicit loop nesting, and frame states on speculative guards so
// compiled code can deoptimize back into the interpreter.
package ir

import (
	"fmt"
	"strings"

	"artemis/internal/bytecode"
	"artemis/internal/lang/ast"
)

// ID identifies a value within a function.
type ID int32

// Op enumerates IR operations.
type Op uint8

const (
	OpInvalid Op = iota

	OpConst // Aux = constant value
	OpParam // Aux = local slot (entry parameters; for OSR entries every slot)
	OpPhi   // Args parallel the block's Preds

	// Pure arithmetic (Wide selects 64-bit semantics).
	OpAdd
	OpSub
	OpMul
	OpDiv // trapping: pinned to the effect list unless divisor is a non-zero constant
	OpRem // trapping, like OpDiv
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpUshr
	OpNeg
	OpBitNot
	OpL2I
	OpCmp // Cond; yields 0/1

	OpArrLen // pure: array lengths are immutable

	// Effectful operations (order within a block is semantic).
	OpGetField // Aux = field index; a load — ordered, removable by value propagation
	OpPutField // Aux = field index; Args[0] = value
	OpNewArr   // Kind = element kind; Args[0] = length
	OpALoad    // Args = ref, idx; bounds-checked
	OpAStore   // Args = ref, idx, val; bounds-checked
	// Unchecked variants produced by bounds-check elimination.
	OpALoadNoCheck
	OpAStoreNoCheck
	// OpAStoreRaw is only produced by injected compiler bugs: it can
	// write one past the end (the heap canary), modeling miscompiled
	// stores that corrupt the heap.
	OpAStoreRaw
	OpCall  // Aux = method index; Args = call arguments
	OpPrint // Kind = value kind; Args[0] = value

	// OpGuard is an uncommon trap: Args[0] must equal Aux (0 or 1),
	// otherwise execution deoptimizes using the attached FrameState.
	OpGuard
)

var opNames = [...]string{
	OpInvalid: "invalid", OpConst: "const", OpParam: "param", OpPhi: "phi",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpUshr: "ushr", OpNeg: "neg", OpBitNot: "bitnot", OpL2I: "l2i",
	OpCmp: "cmp", OpArrLen: "arrlen",
	OpGetField: "getfield", OpPutField: "putfield", OpNewArr: "newarr",
	OpALoad: "aload", OpAStore: "astore",
	OpALoadNoCheck: "aload.nc", OpAStoreNoCheck: "astore.nc", OpAStoreRaw: "astore.raw",
	OpCall: "call", OpPrint: "print", OpGuard: "guard",
}

func (op Op) String() string { return opNames[op] }

// bytecodeOps holds the long and the int bytecode form of each
// two-operand arithmetic op: the one mapping between the two
// instruction sets, used in both directions.
var bytecodeOps = [...][2]bytecode.Op{
	OpAdd:  {bytecode.OpAddL, bytecode.OpAddI},
	OpSub:  {bytecode.OpSubL, bytecode.OpSubI},
	OpMul:  {bytecode.OpMulL, bytecode.OpMulI},
	OpDiv:  {bytecode.OpDivL, bytecode.OpDivI},
	OpRem:  {bytecode.OpRemL, bytecode.OpRemI},
	OpAnd:  {bytecode.OpAndL, bytecode.OpAndI},
	OpOr:   {bytecode.OpOrL, bytecode.OpOrI},
	OpXor:  {bytecode.OpXorL, bytecode.OpXorI},
	OpShl:  {bytecode.OpShlL, bytecode.OpShlI},
	OpShr:  {bytecode.OpShrL, bytecode.OpShrI},
	OpUshr: {bytecode.OpUshrL, bytecode.OpUshrI},
}

// BinOpFor maps a bytecode arithmetic opcode to the IR op and its
// width (true for the 64-bit long form).
func BinOpFor(op bytecode.Op) (Op, bool) {
	for o := OpAdd; o <= OpUshr; o++ {
		switch op {
		case bytecodeOps[o][0]:
			return o, true
		case bytecodeOps[o][1]:
			return o, false
		}
	}
	panic(fmt.Sprintf("ir: not a binary bytecode op: %v", op))
}

// BytecodeOpFor maps an IR arithmetic op of the given width back to
// bytecode (for shared constant folding via vm.EvalBinary).
func (op Op) BytecodeOpFor(wide bool) bytecode.Op {
	if !op.IsBinArith() {
		panic(fmt.Sprintf("ir: %v is not arithmetic", op))
	}
	if wide {
		return bytecodeOps[op][0]
	}
	return bytecodeOps[op][1]
}

// IsBinArith reports whether op is a two-operand arithmetic op.
func (op Op) IsBinArith() bool { return op >= OpAdd && op <= OpUshr }

// FrameState captures the interpreter frame to reconstruct when a
// guard fails: the bytecode pc plus the SSA values of every local slot
// and operand-stack word at that point.
type FrameState struct {
	PC     int
	Locals []*Value
	Stack  []*Value
}

// Value is one SSA value.
type Value struct {
	ID    ID
	Op    Op
	Wide  bool
	Cond  bytecode.Cond
	Aux   int64
	Kind  ast.Kind
	Args  []*Value
	Block *Block
	FS    *FrameState // OpGuard only

	// Uses counts references from other values, block controls, and
	// frame states (maintained by Func.ComputeUses).
	Uses int
}

// Trapping reports whether executing v can raise a program-visible
// exception (so v must not be duplicated, reordered against effects,
// or speculatively hoisted).
func (v *Value) Trapping() bool {
	switch v.Op {
	case OpALoad, OpAStore, OpNewArr:
		return true
	case OpDiv, OpRem:
		d := v.Args[1]
		return !(d.Op == OpConst && d.Aux != 0)
	}
	return false
}

// Effectful reports whether v has side effects or observes mutable
// state, pinning it to the block's effect order.
func (v *Value) Effectful() bool {
	switch v.Op {
	case OpGetField, OpPutField, OpNewArr, OpALoad, OpAStore,
		OpALoadNoCheck, OpAStoreNoCheck, OpAStoreRaw, OpCall, OpPrint, OpGuard:
		return true
	case OpDiv, OpRem:
		return v.Trapping()
	}
	return false
}

// Pure reports the opposite of Effectful.
func (v *Value) Pure() bool { return !v.Effectful() }

// HasResult reports whether v produces a value consumed by others.
func (v *Value) HasResult() bool {
	switch v.Op {
	case OpPutField, OpAStore, OpAStoreNoCheck, OpAStoreRaw, OpPrint, OpGuard:
		return false
	case OpCall:
		return true // void calls simply have zero uses
	}
	return true
}

func (v *Value) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d = %s", v.ID, v.Op)
	if v.Wide {
		b.WriteString(".l")
	}
	if v.Op == OpCmp {
		fmt.Fprintf(&b, ".%s", v.Cond)
	}
	switch v.Op {
	case OpConst, OpParam, OpGetField, OpPutField, OpCall, OpGuard:
		fmt.Fprintf(&b, " [%d]", v.Aux)
	case OpNewArr, OpPrint:
		fmt.Fprintf(&b, " [%s]", v.Kind)
	}
	for _, a := range v.Args {
		fmt.Fprintf(&b, " v%d", a.ID)
	}
	if v.FS != nil {
		fmt.Fprintf(&b, " fs@%d", v.FS.PC)
	}
	return b.String()
}

// BlockKind classifies block terminators.
type BlockKind uint8

const (
	BlockPlain   BlockKind = iota // one successor
	BlockIf                       // Ctrl != 0 -> Succs[0], else Succs[1]
	BlockSwitch                   // Ctrl selects via Cases/DefaultSucc
	BlockRet                      // return Ctrl
	BlockRetVoid                  // return
)

// SwitchCase routes one constant to a successor index.
type SwitchCase struct {
	Value int64
	Succ  int // index into Succs
}

// Block is a basic block.
type Block struct {
	ID     int
	Kind   BlockKind
	Values []*Value // in order; effectful values must keep relative order
	Ctrl   *Value   // branch condition / switch tag / return value
	Succs  []*Block
	Preds  []*Block

	// Switch routing (BlockSwitch): DefaultSucc indexes Succs.
	Cases       []SwitchCase
	DefaultSucc int

	// Loop structure, filled by Func.ComputeLoops.
	LoopDepth int
	LoopID    int // innermost loop id, -1 if none

	// Freq is the static frequency estimate used by code motion.
	Freq float64
}

func (b *Block) String() string { return fmt.Sprintf("b%d", b.ID) }

// AddEdge links b -> s.
func (b *Block) AddEdge(s *Block) {
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// PredIndex returns the index of p in b.Preds.
func (b *Block) PredIndex(p *Block) int {
	for i, q := range b.Preds {
		if q == p {
			return i
		}
	}
	return -1
}

// Loop describes one natural loop.
type Loop struct {
	ID     int
	Header *Block
	Blocks map[int]bool // block IDs in the loop
	Parent int          // enclosing loop id or -1
	Depth  int
}

// Func is one function (method) in SSA form.
type Func struct {
	Name        string
	MethodIndex int
	NParams     int
	NSlots      int // total local slots in the source method
	OSRLoopID   int // -1 for regular entries

	Entry  *Block
	Blocks []*Block
	Loops  []*Loop

	nextValueID ID
	nextBlockID int
}

// NewFunc creates an empty function.
func NewFunc(name string, methodIndex, nParams, nSlots, osrLoop int) *Func {
	return &Func{
		Name:        name,
		MethodIndex: methodIndex,
		NParams:     nParams,
		NSlots:      nSlots,
		OSRLoopID:   osrLoop,
	}
}

// NewBlock appends a fresh block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.nextBlockID, LoopID: -1}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewValue creates a value in block b.
func (f *Func) NewValue(b *Block, op Op, args ...*Value) *Value {
	v := &Value{ID: f.nextValueID, Op: op, Args: args, Block: b}
	f.nextValueID++
	b.Values = append(b.Values, v)
	return v
}

// ComputeUses recounts value uses (args, ctrl, frame states).
func (f *Func) ComputeUses() {
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			v.Uses = 0
		}
	}
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			for _, a := range v.Args {
				a.Uses++
			}
			if v.FS != nil {
				for _, a := range v.FS.Locals {
					a.Uses++
				}
				for _, a := range v.FS.Stack {
					a.Uses++
				}
			}
		}
		if b.Ctrl != nil {
			b.Ctrl.Uses++
		}
	}
}

// String dumps the function.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s (method %d, %d params", f.Name, f.MethodIndex, f.NParams)
	if f.OSRLoopID >= 0 {
		fmt.Fprintf(&sb, ", OSR loop %d", f.OSRLoopID)
	}
	sb.WriteString(")\n")
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s: (depth %d, freq %.1f)", b, b.LoopDepth, b.Freq)
		if len(b.Preds) > 0 {
			sb.WriteString(" <-")
			for _, p := range b.Preds {
				fmt.Fprintf(&sb, " %s", p)
			}
		}
		sb.WriteByte('\n')
		for _, v := range b.Values {
			fmt.Fprintf(&sb, "    %s\n", v)
		}
		switch b.Kind {
		case BlockPlain:
			fmt.Fprintf(&sb, "    -> %s\n", b.Succs[0])
		case BlockIf:
			fmt.Fprintf(&sb, "    if v%d -> %s else %s\n", b.Ctrl.ID, b.Succs[0], b.Succs[1])
		case BlockSwitch:
			fmt.Fprintf(&sb, "    switch v%d", b.Ctrl.ID)
			for _, c := range b.Cases {
				fmt.Fprintf(&sb, " %d:%s", c.Value, b.Succs[c.Succ])
			}
			fmt.Fprintf(&sb, " default:%s\n", b.Succs[b.DefaultSucc])
		case BlockRet:
			fmt.Fprintf(&sb, "    ret v%d\n", b.Ctrl.ID)
		case BlockRetVoid:
			sb.WriteString("    ret\n")
		}
	}
	return sb.String()
}
