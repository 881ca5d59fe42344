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
// Dispatch runs on the method's verified 16-byte instruction words:
// width and condition variants are fused into the opcode, a call
// carries its argument count and void-ness, a back-edge its loop id,
// and the operand stack is a fixed MaxStack-capacity window indexed by
// sp. The verifier guarantees every operand the loop indexes with is in
// range and that the depth never exceeds MaxStack.
func (vm *VM) interpLoop(st *MethodState, pc int, locals, stack []int64, tv *TempVector, profiled bool) (int64, *Unwind) {
	m := vm.prog.Methods[st.Index]
	code := m.Code
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
		case bytecode.OpConst:
			stack[sp] = in.A
			sp++
			pc++
		case bytecode.OpLoad:
			stack[sp] = locals[in.A]
			sp++
			pc++
		case bytecode.OpStore:
			sp--
			locals[in.A] = stack[sp]
			pc++
		case bytecode.OpPop:
			sp--
			pc++
		case bytecode.OpDup:
			stack[sp] = stack[sp-1]
			sp++
			pc++
		case bytecode.OpDup2:
			stack[sp] = stack[sp-2]
			stack[sp+1] = stack[sp-1]
			sp += 2
			pc++
		case bytecode.OpGetField:
			stack[sp] = vm.fields[in.A]
			sp++
			pc++
		case bytecode.OpPutField:
			sp--
			vm.fields[in.A] = stack[sp]
			pc++
		case bytecode.OpNewArr:
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
		case bytecode.OpALoad:
			sp--
			v, err := vm.ArrayLoad(stack[sp-1], int64(int32(stack[sp])))
			if err != nil {
				return 0, vm.throw(st, err)
			}
			stack[sp-1] = v
			pc++
		case bytecode.OpAStore:
			sp -= 3
			if err := vm.ArrayStore(stack[sp], int64(int32(stack[sp+1])), stack[sp+2]); err != nil {
				return 0, vm.throw(st, err)
			}
			pc++
		case bytecode.OpArrLen:
			n, err := vm.ArrayLen(stack[sp-1])
			if err != nil {
				return 0, vm.throw(st, err)
			}
			stack[sp-1] = n
			pc++

		case bytecode.OpAddL:
			sp--
			stack[sp-1] += stack[sp]
			pc++
		case bytecode.OpAddI:
			sp--
			stack[sp-1] = int64(int32(stack[sp-1]) + int32(stack[sp]))
			pc++
		case bytecode.OpSubL:
			sp--
			stack[sp-1] -= stack[sp]
			pc++
		case bytecode.OpSubI:
			sp--
			stack[sp-1] = int64(int32(stack[sp-1]) - int32(stack[sp]))
			pc++
		case bytecode.OpMulL:
			sp--
			stack[sp-1] *= stack[sp]
			pc++
		case bytecode.OpMulI:
			sp--
			stack[sp-1] = int64(int32(stack[sp-1]) * int32(stack[sp]))
			pc++
		case bytecode.OpDivL:
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
		case bytecode.OpDivI:
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
		case bytecode.OpRemL:
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
		case bytecode.OpRemI:
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
		case bytecode.OpAndL:
			sp--
			stack[sp-1] &= stack[sp]
			pc++
		case bytecode.OpAndI:
			sp--
			stack[sp-1] = int64(int32(stack[sp-1]) & int32(stack[sp]))
			pc++
		case bytecode.OpOrL:
			sp--
			stack[sp-1] |= stack[sp]
			pc++
		case bytecode.OpOrI:
			sp--
			stack[sp-1] = int64(int32(stack[sp-1]) | int32(stack[sp]))
			pc++
		case bytecode.OpXorL:
			sp--
			stack[sp-1] ^= stack[sp]
			pc++
		case bytecode.OpXorI:
			sp--
			stack[sp-1] = int64(int32(stack[sp-1]) ^ int32(stack[sp]))
			pc++
		case bytecode.OpShlL:
			sp--
			stack[sp-1] <<= uint64(stack[sp]) & 63
			pc++
		case bytecode.OpShlI:
			sp--
			stack[sp-1] = int64(int32(stack[sp-1]) << (uint32(stack[sp]) & 31))
			pc++
		case bytecode.OpShrL:
			sp--
			stack[sp-1] >>= uint64(stack[sp]) & 63
			pc++
		case bytecode.OpShrI:
			sp--
			stack[sp-1] = int64(int32(stack[sp-1]) >> (uint32(stack[sp]) & 31))
			pc++
		case bytecode.OpUshrL:
			sp--
			stack[sp-1] = int64(uint64(stack[sp-1]) >> (uint64(stack[sp]) & 63))
			pc++
		case bytecode.OpUshrI:
			sp--
			stack[sp-1] = int64(int32(uint32(int32(stack[sp-1])) >> (uint32(stack[sp]) & 31)))
			pc++

		case bytecode.OpNegL:
			stack[sp-1] = -stack[sp-1]
			pc++
		case bytecode.OpNegI:
			stack[sp-1] = int64(int32(-stack[sp-1]))
			pc++
		case bytecode.OpBitNotL:
			stack[sp-1] = ^stack[sp-1]
			pc++
		case bytecode.OpBitNotI:
			stack[sp-1] = int64(int32(^stack[sp-1]))
			pc++
		case bytecode.OpL2I:
			stack[sp-1] = int64(int32(stack[sp-1]))
			pc++

		case bytecode.OpCmpEQ:
			sp--
			stack[sp-1] = b2i(stack[sp-1] == stack[sp])
			pc++
		case bytecode.OpCmpNE:
			sp--
			stack[sp-1] = b2i(stack[sp-1] != stack[sp])
			pc++
		case bytecode.OpCmpLT:
			sp--
			stack[sp-1] = b2i(stack[sp-1] < stack[sp])
			pc++
		case bytecode.OpCmpLE:
			sp--
			stack[sp-1] = b2i(stack[sp-1] <= stack[sp])
			pc++
		case bytecode.OpCmpGT:
			sp--
			stack[sp-1] = b2i(stack[sp-1] > stack[sp])
			pc++
		case bytecode.OpCmpGE:
			sp--
			stack[sp-1] = b2i(stack[sp-1] >= stack[sp])
			pc++

		case bytecode.OpGoto:
			pc = int(in.A)
		case bytecode.OpIfTrue:
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
		case bytecode.OpIfFalse:
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
		case bytecode.OpIfCmpEQ:
			sp -= 2
			pc = vm.branchTo(st, pc, int(in.A), stack[sp] == stack[sp+1], profiled)
		case bytecode.OpIfCmpNE:
			sp -= 2
			pc = vm.branchTo(st, pc, int(in.A), stack[sp] != stack[sp+1], profiled)
		case bytecode.OpIfCmpLT:
			sp -= 2
			pc = vm.branchTo(st, pc, int(in.A), stack[sp] < stack[sp+1], profiled)
		case bytecode.OpIfCmpLE:
			sp -= 2
			pc = vm.branchTo(st, pc, int(in.A), stack[sp] <= stack[sp+1], profiled)
		case bytecode.OpIfCmpGT:
			sp -= 2
			pc = vm.branchTo(st, pc, int(in.A), stack[sp] > stack[sp+1], profiled)
		case bytecode.OpIfCmpGE:
			sp -= 2
			pc = vm.branchTo(st, pc, int(in.A), stack[sp] >= stack[sp+1], profiled)

		case bytecode.OpSwitch:
			sp--
			pc = m.Switches[in.A].Lookup(int64(int32(stack[sp])))
		case bytecode.OpLoopBack:
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
						vm.frames[fi].sp = sp
						return vm.runCompiled(st, osrCode, locals, tv)
					}
				}
			}
			pc = int(in.A)
		case bytecode.OpCall:
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
		case bytecode.OpCallV:
			n := int(in.B)
			sp -= n
			vm.frames[fi].sp = sp
			if _, uw := vm.CallMethod(int(in.A), stack[sp:sp+n]); uw != nil {
				return 0, uw
			}
			pc++
		case bytecode.OpRet:
			return 0, nil
		case bytecode.OpRetV:
			return stack[sp-1], nil
		case bytecode.OpPrint:
			sp--
			vm.Print(ast.Kind(in.Kind), stack[sp])
			pc++
		default:
			panic(fmt.Sprintf("vm: unknown opcode %v at pc %d in %s", in.Op, pc, m.Name))
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

// EvalBinary applies a binary arithmetic/bitwise bytecode opcode with
// Java semantics: 32-bit wrapping for the int forms, 64-bit for the
// long forms, masked shift counts, and ArithmeticException on division
// by zero. It is exported because the JIT constant folder and the
// machine executor must share exactly one definition of arithmetic
// with the interpreter.
func EvalBinary(op bytecode.Op, a, b int64) (int64, *RuntimeError) {
	x, y := int32(a), int32(b)
	switch op {
	case bytecode.OpAddL:
		return a + b, nil
	case bytecode.OpAddI:
		return int64(x + y), nil
	case bytecode.OpSubL:
		return a - b, nil
	case bytecode.OpSubI:
		return int64(x - y), nil
	case bytecode.OpMulL:
		return a * b, nil
	case bytecode.OpMulI:
		return int64(x * y), nil
	case bytecode.OpDivL:
		if b == 0 {
			return 0, &RuntimeError{Kind: TrapDivByZero, Msg: "/ by zero"}
		}
		if a == -1<<63 && b == -1 {
			return a, nil // Java wraps; Go would panic
		}
		return a / b, nil
	case bytecode.OpDivI:
		if y == 0 {
			return 0, &RuntimeError{Kind: TrapDivByZero, Msg: "/ by zero"}
		}
		if x == -1<<31 && y == -1 {
			return int64(x), nil
		}
		return int64(x / y), nil
	case bytecode.OpRemL:
		if b == 0 {
			return 0, &RuntimeError{Kind: TrapDivByZero, Msg: "/ by zero"}
		}
		if a == -1<<63 && b == -1 {
			return 0, nil
		}
		return a % b, nil
	case bytecode.OpRemI:
		if y == 0 {
			return 0, &RuntimeError{Kind: TrapDivByZero, Msg: "/ by zero"}
		}
		if x == -1<<31 && y == -1 {
			return 0, nil
		}
		return int64(x % y), nil
	case bytecode.OpAndL:
		return a & b, nil
	case bytecode.OpAndI:
		return int64(x & y), nil
	case bytecode.OpOrL:
		return a | b, nil
	case bytecode.OpOrI:
		return int64(x | y), nil
	case bytecode.OpXorL:
		return a ^ b, nil
	case bytecode.OpXorI:
		return int64(x ^ y), nil
	case bytecode.OpShlL:
		return a << (uint64(b) & 63), nil
	case bytecode.OpShlI:
		return int64(x << (uint32(y) & 31)), nil
	case bytecode.OpShrL:
		return a >> (uint64(b) & 63), nil
	case bytecode.OpShrI:
		return int64(x >> (uint32(y) & 31)), nil
	case bytecode.OpUshrL:
		return int64(uint64(a) >> (uint64(b) & 63)), nil
	case bytecode.OpUshrI:
		return int64(int32(uint32(x) >> (uint32(y) & 31))), nil
	}
	panic(fmt.Sprintf("vm: EvalBinary of non-arithmetic op %v", op))
}
