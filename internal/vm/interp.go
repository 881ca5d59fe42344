package vm

import (
	"fmt"

	"artemis/internal/bytecode"
	"artemis/internal/lang/ast"
)

// interpLoop interprets method st.Index starting at pc with the given
// frame state (locals and operand stack — non-zero pc and a non-nil
// stack occur when resuming after a deoptimization). It updates
// profiling data when profiled is true, drives back-edge counters, and
// performs OSR when the policy asks for it.
//
// Dispatch runs on the method's pre-decoded instruction stream
// (bytecode.DInstr): width and condition variants are fused into the
// opcode, callee arity/void-ness and loop ids are pre-resolved, and the
// operand stack is a fixed MaxStack-capacity window indexed by sp
// (the verifier guarantees depth never exceeds MaxStack). The decoded
// stream maps 1:1 onto Method.Code, so pc values — deopt resume
// points, profile keys — mean the same thing they always did.
func (vm *VM) interpLoop(st *MethodState, pc int, locals, stack []int64, tv *TempVector, profiled bool) (int64, *Unwind) {
	m := vm.prog.Methods[st.Index]
	code := m.Decoded
	sp := len(stack)
	var mark arenaMark
	ownStack := stack == nil
	if ownStack {
		mark = vm.arena.mark()
		stack = vm.arena.alloc(m.MaxStack)
	} else if cap(stack) < m.MaxStack {
		// Deopt resume handed us a shallow backing array; regrow once.
		ns := make([]int64, m.MaxStack)
		copy(ns, stack)
		stack = ns
	}
	stack = stack[:cap(stack)]

	// Register this frame as a GC root set. Only stack[:sp] is scanned,
	// and sp is synced into the frame before every operation that can
	// trigger a collection, so the arena's non-zeroed memory above sp is
	// never observed.
	fi := len(vm.frames)
	vm.frames = append(vm.frames, interpFrame{locals: locals, stack: stack, sp: sp})
	defer func() {
		vm.frames = vm.frames[:fi]
		if ownStack {
			vm.arena.release(mark)
		}
	}()

	for {
		vm.steps++
		if vm.steps > vm.checkAt {
			if uw := vm.checkpoint(); uw != nil {
				return 0, uw
			}
		}
		in := code[pc]
		switch in.Op {
		case bytecode.DNop:
			pc++
		case bytecode.DConst:
			stack[sp] = in.A
			sp++
			pc++
		case bytecode.DLoad:
			stack[sp] = locals[in.A]
			sp++
			pc++
		case bytecode.DStore:
			sp--
			locals[in.A] = stack[sp]
			pc++
		case bytecode.DPop:
			sp--
			pc++
		case bytecode.DDup:
			stack[sp] = stack[sp-1]
			sp++
			pc++
		case bytecode.DDup2:
			stack[sp] = stack[sp-2]
			stack[sp+1] = stack[sp-1]
			sp += 2
			pc++
		case bytecode.DGetField:
			stack[sp] = vm.fields[in.A]
			sp++
			pc++
		case bytecode.DPutField:
			sp--
			vm.fields[in.A] = stack[sp]
			pc++
		case bytecode.DNewArr:
			sp--
			n := stack[sp]
			vm.frames[fi].sp = sp
			h, err := vm.NewArray(ast.Kind(in.Kind), int64(int32(n)))
			if err != nil {
				return 0, vm.throw(st, err)
			}
			stack[sp] = h
			sp++
			pc++
		case bytecode.DALoad:
			sp--
			v, err := vm.ArrayLoad(stack[sp-1], int64(int32(stack[sp])))
			if err != nil {
				return 0, vm.throw(st, err)
			}
			stack[sp-1] = v
			pc++
		case bytecode.DAStore:
			sp -= 3
			if err := vm.ArrayStore(stack[sp], int64(int32(stack[sp+1])), stack[sp+2]); err != nil {
				return 0, vm.throw(st, err)
			}
			pc++
		case bytecode.DArrLen:
			n, err := vm.ArrayLen(stack[sp-1])
			if err != nil {
				return 0, vm.throw(st, err)
			}
			stack[sp-1] = n
			pc++

		case bytecode.DAddL:
			sp--
			stack[sp-1] += stack[sp]
			pc++
		case bytecode.DAddI:
			sp--
			stack[sp-1] = int64(int32(stack[sp-1]) + int32(stack[sp]))
			pc++
		case bytecode.DSubL:
			sp--
			stack[sp-1] -= stack[sp]
			pc++
		case bytecode.DSubI:
			sp--
			stack[sp-1] = int64(int32(stack[sp-1]) - int32(stack[sp]))
			pc++
		case bytecode.DMulL:
			sp--
			stack[sp-1] *= stack[sp]
			pc++
		case bytecode.DMulI:
			sp--
			stack[sp-1] = int64(int32(stack[sp-1]) * int32(stack[sp]))
			pc++
		case bytecode.DDivL:
			sp--
			b := stack[sp]
			a := stack[sp-1]
			if b == 0 {
				return 0, vm.throw(st, &RuntimeError{Kind: TrapDivByZero, Msg: "/ by zero"})
			}
			if a == -1<<63 && b == -1 {
				stack[sp-1] = a // Java wraps; Go would panic
			} else {
				stack[sp-1] = a / b
			}
			pc++
		case bytecode.DDivI:
			sp--
			y := int32(stack[sp])
			x := int32(stack[sp-1])
			if y == 0 {
				return 0, vm.throw(st, &RuntimeError{Kind: TrapDivByZero, Msg: "/ by zero"})
			}
			if x == -1<<31 && y == -1 {
				stack[sp-1] = int64(x)
			} else {
				stack[sp-1] = int64(x / y)
			}
			pc++
		case bytecode.DRemL:
			sp--
			b := stack[sp]
			a := stack[sp-1]
			if b == 0 {
				return 0, vm.throw(st, &RuntimeError{Kind: TrapDivByZero, Msg: "/ by zero"})
			}
			if a == -1<<63 && b == -1 {
				stack[sp-1] = 0
			} else {
				stack[sp-1] = a % b
			}
			pc++
		case bytecode.DRemI:
			sp--
			y := int32(stack[sp])
			x := int32(stack[sp-1])
			if y == 0 {
				return 0, vm.throw(st, &RuntimeError{Kind: TrapDivByZero, Msg: "/ by zero"})
			}
			if x == -1<<31 && y == -1 {
				stack[sp-1] = 0
			} else {
				stack[sp-1] = int64(x % y)
			}
			pc++
		case bytecode.DAndL:
			sp--
			stack[sp-1] &= stack[sp]
			pc++
		case bytecode.DAndI:
			sp--
			stack[sp-1] = int64(int32(stack[sp-1]) & int32(stack[sp]))
			pc++
		case bytecode.DOrL:
			sp--
			stack[sp-1] |= stack[sp]
			pc++
		case bytecode.DOrI:
			sp--
			stack[sp-1] = int64(int32(stack[sp-1]) | int32(stack[sp]))
			pc++
		case bytecode.DXorL:
			sp--
			stack[sp-1] ^= stack[sp]
			pc++
		case bytecode.DXorI:
			sp--
			stack[sp-1] = int64(int32(stack[sp-1]) ^ int32(stack[sp]))
			pc++
		case bytecode.DShlL:
			sp--
			stack[sp-1] <<= uint64(stack[sp]) & 63
			pc++
		case bytecode.DShlI:
			sp--
			stack[sp-1] = int64(int32(stack[sp-1]) << (uint32(stack[sp]) & 31))
			pc++
		case bytecode.DShrL:
			sp--
			stack[sp-1] >>= uint64(stack[sp]) & 63
			pc++
		case bytecode.DShrI:
			sp--
			stack[sp-1] = int64(int32(stack[sp-1]) >> (uint32(stack[sp]) & 31))
			pc++
		case bytecode.DUshrL:
			sp--
			stack[sp-1] = int64(uint64(stack[sp-1]) >> (uint64(stack[sp]) & 63))
			pc++
		case bytecode.DUshrI:
			sp--
			stack[sp-1] = int64(int32(uint32(int32(stack[sp-1])) >> (uint32(stack[sp]) & 31)))
			pc++

		case bytecode.DNegL:
			stack[sp-1] = -stack[sp-1]
			pc++
		case bytecode.DNegI:
			stack[sp-1] = int64(int32(-stack[sp-1]))
			pc++
		case bytecode.DBitNotL:
			stack[sp-1] = ^stack[sp-1]
			pc++
		case bytecode.DBitNotI:
			stack[sp-1] = int64(int32(^stack[sp-1]))
			pc++
		case bytecode.DL2I:
			stack[sp-1] = int64(int32(stack[sp-1]))
			pc++

		case bytecode.DCmpEQ:
			sp--
			stack[sp-1] = b2i(stack[sp-1] == stack[sp])
			pc++
		case bytecode.DCmpNE:
			sp--
			stack[sp-1] = b2i(stack[sp-1] != stack[sp])
			pc++
		case bytecode.DCmpLT:
			sp--
			stack[sp-1] = b2i(stack[sp-1] < stack[sp])
			pc++
		case bytecode.DCmpLE:
			sp--
			stack[sp-1] = b2i(stack[sp-1] <= stack[sp])
			pc++
		case bytecode.DCmpGT:
			sp--
			stack[sp-1] = b2i(stack[sp-1] > stack[sp])
			pc++
		case bytecode.DCmpGE:
			sp--
			stack[sp-1] = b2i(stack[sp-1] >= stack[sp])
			pc++

		case bytecode.DGoto:
			pc = int(in.A)
		case bytecode.DIfTrue:
			sp--
			taken := stack[sp] != 0
			if profiled {
				st.Profile.branch(pc, taken)
			}
			if taken {
				pc = int(in.A)
			} else {
				pc++
			}
		case bytecode.DIfFalse:
			sp--
			taken := stack[sp] == 0
			if profiled {
				st.Profile.branch(pc, taken)
			}
			if taken {
				pc = int(in.A)
			} else {
				pc++
			}
		case bytecode.DIfCmpEQ:
			sp -= 2
			pc = vm.branchTo(st, pc, int(in.A), stack[sp] == stack[sp+1], profiled)
		case bytecode.DIfCmpNE:
			sp -= 2
			pc = vm.branchTo(st, pc, int(in.A), stack[sp] != stack[sp+1], profiled)
		case bytecode.DIfCmpLT:
			sp -= 2
			pc = vm.branchTo(st, pc, int(in.A), stack[sp] < stack[sp+1], profiled)
		case bytecode.DIfCmpLE:
			sp -= 2
			pc = vm.branchTo(st, pc, int(in.A), stack[sp] <= stack[sp+1], profiled)
		case bytecode.DIfCmpGT:
			sp -= 2
			pc = vm.branchTo(st, pc, int(in.A), stack[sp] > stack[sp+1], profiled)
		case bytecode.DIfCmpGE:
			sp -= 2
			pc = vm.branchTo(st, pc, int(in.A), stack[sp] >= stack[sp+1], profiled)

		case bytecode.DSwitch:
			sp--
			t := m.Switches[in.A].Lookup(int64(int32(stack[sp])))
			if profiled {
				st.Profile.switchHit(pc, t)
			}
			pc = t
		case bytecode.DLoopBack:
			if profiled {
				loopID := int(in.B)
				st.Counters.Backedge[loopID]++
				dec := vm.policy.OnBackEdge(st, loopID)
				if dec.Action != ActInterpret {
					var osrCode CompiledCode
					if dec.Action == ActCompile {
						var uw *Unwind
						osrCode, uw = vm.ensureOSR(st, loopID, dec.Tier)
						if uw != nil {
							return 0, uw
						}
					} else {
						// ActUseCompiled: enter the cached OSR entry
						// without a compile request (nil when the cached
						// compilation failed benignly: keep interpreting).
						osrCode = st.osrCode(loopID)
					}
					if osrCode != nil {
						vm.osrEntries++
						if tv != nil {
							tv.Temps = append(tv.Temps, osrCode.Tier())
						}
						vm.frames[fi].sp = sp
						res := osrCode.Run(vm, locals)
						switch res.Kind {
						case ExecReturn:
							return res.Value, nil
						case ExecUnwind:
							return 0, res.Unwind
						case ExecDeopt:
							return vm.handleDeopt(st, res.Deopt, tv)
						}
					}
				}
			}
			pc = int(in.A)
		case bytecode.DCall:
			n := int(in.B)
			sp -= n
			vm.frames[fi].sp = sp
			ret, uw := vm.CallMethod(int(in.A), stack[sp:sp+n])
			if uw != nil {
				return 0, uw
			}
			stack[sp] = ret
			sp++
			pc++
		case bytecode.DCallV:
			n := int(in.B)
			sp -= n
			vm.frames[fi].sp = sp
			if _, uw := vm.CallMethod(int(in.A), stack[sp:sp+n]); uw != nil {
				return 0, uw
			}
			pc++
		case bytecode.DRet:
			return 0, nil
		case bytecode.DRetV:
			return stack[sp-1], nil
		case bytecode.DPrint:
			sp--
			vm.Print(ast.Kind(in.Kind), stack[sp])
			pc++
		default:
			panic(fmt.Sprintf("vm: unknown decoded opcode %d at pc %d in %s", in.Op, pc, m.Name))
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// branchTo records a profiled two-way branch outcome and returns the
// next pc.
func (vm *VM) branchTo(st *MethodState, pc, target int, taken, profiled bool) int {
	if profiled {
		st.Profile.branch(pc, taken)
	}
	if taken {
		return target
	}
	return pc + 1
}

// throw decorates a program-level error with the method name so the
// observable message is informative yet deterministic across tiers.
func (vm *VM) throw(st *MethodState, err *RuntimeError) *Unwind {
	if err.Kind == trapTimeout {
		return vm.timeoutUnwind()
	}
	e := *err
	e.Msg = e.Msg + " (in " + st.Name + ")"
	return &Unwind{Err: &e}
}

// EvalBinary applies a binary arithmetic/bitwise bytecode operator with
// Java semantics: 32-bit wrapping when !wide, 64-bit when wide, masked
// shift counts, and ArithmeticException on division by zero. It is
// exported because the interpreter, the JIT constant folder, and the
// machine executor must share exactly one definition of arithmetic.
func EvalBinary(op bytecode.Op, wide bool, a, b int64) (int64, *RuntimeError) {
	if wide {
		switch op {
		case bytecode.OpAdd:
			return a + b, nil
		case bytecode.OpSub:
			return a - b, nil
		case bytecode.OpMul:
			return a * b, nil
		case bytecode.OpDiv:
			if b == 0 {
				return 0, &RuntimeError{Kind: TrapDivByZero, Msg: "/ by zero"}
			}
			if a == -1<<63 && b == -1 {
				return a, nil // Java wraps; Go would panic
			}
			return a / b, nil
		case bytecode.OpRem:
			if b == 0 {
				return 0, &RuntimeError{Kind: TrapDivByZero, Msg: "/ by zero"}
			}
			if a == -1<<63 && b == -1 {
				return 0, nil
			}
			return a % b, nil
		case bytecode.OpAnd:
			return a & b, nil
		case bytecode.OpOr:
			return a | b, nil
		case bytecode.OpXor:
			return a ^ b, nil
		case bytecode.OpShl:
			return a << (uint64(b) & 63), nil
		case bytecode.OpShr:
			return a >> (uint64(b) & 63), nil
		case bytecode.OpUshr:
			return int64(uint64(a) >> (uint64(b) & 63)), nil
		}
	} else {
		x, y := int32(a), int32(b)
		switch op {
		case bytecode.OpAdd:
			return int64(x + y), nil
		case bytecode.OpSub:
			return int64(x - y), nil
		case bytecode.OpMul:
			return int64(x * y), nil
		case bytecode.OpDiv:
			if y == 0 {
				return 0, &RuntimeError{Kind: TrapDivByZero, Msg: "/ by zero"}
			}
			if x == -1<<31 && y == -1 {
				return int64(x), nil
			}
			return int64(x / y), nil
		case bytecode.OpRem:
			if y == 0 {
				return 0, &RuntimeError{Kind: TrapDivByZero, Msg: "/ by zero"}
			}
			if x == -1<<31 && y == -1 {
				return 0, nil
			}
			return int64(x % y), nil
		case bytecode.OpAnd:
			return int64(x & y), nil
		case bytecode.OpOr:
			return int64(x | y), nil
		case bytecode.OpXor:
			return int64(x ^ y), nil
		case bytecode.OpShl:
			return int64(x << (uint32(y) & 31)), nil
		case bytecode.OpShr:
			return int64(x >> (uint32(y) & 31)), nil
		case bytecode.OpUshr:
			return int64(int32(uint32(x) >> (uint32(y) & 31))), nil
		}
	}
	panic(fmt.Sprintf("vm: EvalBinary of non-arithmetic op %v", op))
}
