package jit

import (
	"fmt"

	"artemis/internal/bytecode"
	"artemis/internal/lang/ast"
	"artemis/internal/vm"
)

// chargeEvery is how many reference instructions compiled code
// executes per step charge.
const chargeEvery = 64

// frameBuf is the storage of one compiled activation. A Code keeps the
// frames of finished activations and reuses them, each with the GC root
// scanner bound to it once, so a compiled call allocates nothing in the
// steady state.
type frameBuf struct {
	// slots is the frame, followed by the Code's constant area.
	slots []int64
	// args holds outgoing call arguments. Like the per-call slices it
	// replaces it is not a GC root: a callee copies its arguments into
	// its own frame before anything can allocate.
	args []int64
	scan func(yield func(int64))
}

// takeFrame returns a zeroed frame, reusing a finished one when it can.
func (c *Code) takeFrame() *frameBuf {
	if n := len(c.free); n > 0 {
		f := c.free[n-1]
		c.free = c.free[:n-1]
		// The conservative GC scans every slot, so a reused frame must
		// hold what a fresh one would: zeros, not stale handles.
		clear(f.slots[:c.frameSize])
		return f
	}
	f := &frameBuf{slots: make([]int64, c.frameSize+len(c.consts)), args: make([]int64, c.maxArgs)}
	copy(f.slots[c.frameSize:], c.consts)
	roots := f.slots[:c.frameSize]
	f.scan = func(yield func(int64)) {
		for _, v := range roots {
			yield(v)
		}
	}
	return f
}

// Run executes compiled code against the VM's runtime environment,
// implementing vm.CompiledCode. The "machine" is a register machine
// whose frame is a flat slice of int64 slots; it talks to the VM for
// every heap, field, call, and print operation, like JIT-compiled
// code calling runtime stubs.
func (c *Code) Run(env vm.Env, args []int64) vm.ExecResult {
	f := c.takeFrame()
	pop := env.RegisterRoots(f.scan)
	res := c.exec(env, args, f)
	// A panic skips the release; it ends the VM run anyway.
	pop()
	c.free = append(c.free, f)
	return res
}

// exec is Run's dispatch loop over frame f.
func (c *Code) exec(env vm.Env, args []int64, f *frameBuf) vm.ExecResult {
	frame, ins, pairs := f.slots, c.ins, c.pairs
	pc := 0

	// Compiled code runs faster than interpretation: it charges
	// stepCost abstract steps before the 64th, 128th, ... reference
	// instruction of each invocation. The hs-perf-osr-storm defect
	// instead re-enters the runtime constantly, making compiled code
	// far more expensive than interpretation — the paper's
	// "performance issue" bug class.
	stepCost := int64(8)
	if c.execBugs.perfStorm {
		stepCost = 640
	}
	// until counts the reference instructions up to and including the
	// next charged one.
	until := chargeEvery

	for {
		in := &ins[pc]
		// A word stands for w reference instructions. The charges that
		// fall on any of them are made here, before the word's first
		// effect: everything a word does before its last reference
		// instruction only writes frame slots, and Step only counts,
		// so every env call sees the same arguments and frame.
		if until -= int(in.w); until <= 0 {
			for ; until <= 0; until += chargeEvery {
				if uw := env.Step(stepCost); uw != nil {
					return vm.ExecResult{Kind: vm.ExecUnwind, Unwind: uw}
				}
			}
		}
		switch in.op {
		case mGroup:
			for _, m := range pairs[in.a:in.b] {
				frame[m.d] = frame[m.a]
			}
		case mGroupJmp:
			for _, m := range pairs[in.a:in.b] {
				frame[m.d] = frame[m.a]
			}
			pc = int(in.imm)
			continue
		case mLdi:
			frame[in.d] = in.imm
		case mLdArg:
			frame[in.d] = args[in.imm]
		case mMov:
			frame[in.d] = frame[in.a]
		// The int operators truncate both operands exactly as
		// vm.EvalBinary does: under oj-cg-l2i-skip a slot can hold a
		// value wider than 32 bits. A K-form first stores its constant
		// in the slot reference code loads it into.
		case mAddIK:
			frame[in.b] = in.imm
			fallthrough
		case mAddI:
			frame[in.d] = int64(int32(frame[in.a]) + int32(frame[in.b]))
		case mAddLK:
			frame[in.b] = in.imm
			fallthrough
		case mAddL:
			frame[in.d] = frame[in.a] + frame[in.b]
		case mSubIK:
			frame[in.b] = in.imm
			fallthrough
		case mSubI:
			frame[in.d] = int64(int32(frame[in.a]) - int32(frame[in.b]))
		case mSubL:
			frame[in.d] = frame[in.a] - frame[in.b]
		case mMulIK:
			frame[in.b] = in.imm
			fallthrough
		case mMulI:
			frame[in.d] = int64(int32(frame[in.a]) * int32(frame[in.b]))
		case mMulLK:
			frame[in.b] = in.imm
			fallthrough
		case mMulL:
			frame[in.d] = frame[in.a] * frame[in.b]
		case mAndIK:
			frame[in.b] = in.imm
			fallthrough
		case mAndI:
			frame[in.d] = int64(int32(frame[in.a]) & int32(frame[in.b]))
		case mAndLK:
			frame[in.b] = in.imm
			fallthrough
		case mAndL:
			frame[in.d] = frame[in.a] & frame[in.b]
		case mOrIK:
			frame[in.b] = in.imm
			fallthrough
		case mOrI:
			frame[in.d] = int64(int32(frame[in.a]) | int32(frame[in.b]))
		case mOrLK:
			frame[in.b] = in.imm
			fallthrough
		case mOrL:
			frame[in.d] = frame[in.a] | frame[in.b]
		case mXorIK:
			frame[in.b] = in.imm
			fallthrough
		case mXorI:
			frame[in.d] = int64(int32(frame[in.a]) ^ int32(frame[in.b]))
		case mXorLK:
			frame[in.b] = in.imm
			fallthrough
		case mXorL:
			frame[in.d] = frame[in.a] ^ frame[in.b]
		case mShlI:
			frame[in.d] = int64(int32(frame[in.a]) << (uint32(frame[in.b]) & 31))
		case mShlLK:
			frame[in.b] = in.imm
			fallthrough
		case mShlL:
			frame[in.d] = frame[in.a] << (uint64(frame[in.b]) & 63)
		case mShrIK:
			frame[in.b] = in.imm
			fallthrough
		case mShrI:
			frame[in.d] = int64(int32(frame[in.a]) >> (uint32(frame[in.b]) & 31))
		case mShrL:
			frame[in.d] = frame[in.a] >> (uint64(frame[in.b]) & 63)
		case mUshrIK:
			frame[in.b] = in.imm
			fallthrough
		case mUshrI:
			frame[in.d] = int64(int32(uint32(frame[in.a]) >> (uint32(frame[in.b]) & 31)))
		case mUshrLK:
			frame[in.b] = in.imm
			fallthrough
		case mUshrL:
			frame[in.d] = int64(uint64(frame[in.a]) >> (uint64(frame[in.b]) & 63))
		case mUshrL32:
			// hs-cg-ushr-wide: long >>> with a 32-bit count mask.
			frame[in.d] = int64(uint64(frame[in.a]) >> (uint64(frame[in.b]) & 31))
		case mDivRemI, mDivRemL:
			v, err := vm.EvalBinary(bytecode.Op(in.imm), frame[in.a], frame[in.b])
			if err != nil {
				return c.unwindErr(err)
			}
			frame[in.d] = v
		case mNegI:
			frame[in.d] = int64(int32(-frame[in.a]))
		case mNegL:
			frame[in.d] = -frame[in.a]
		case mNotI:
			frame[in.d] = int64(int32(^frame[in.a]))
		case mNotL:
			frame[in.d] = ^frame[in.a]
		case mL2I:
			frame[in.d] = int64(int32(frame[in.a]))
		case mCmpEQ:
			frame[in.d] = b2i(frame[in.a] == frame[in.b])
		case mCmpNE:
			frame[in.d] = b2i(frame[in.a] != frame[in.b])
		case mCmpLT:
			frame[in.d] = b2i(frame[in.a] < frame[in.b])
		case mCmpLE:
			frame[in.d] = b2i(frame[in.a] <= frame[in.b])
		case mCmpGT:
			frame[in.d] = b2i(frame[in.a] > frame[in.b])
		case mCmpGE:
			frame[in.d] = b2i(frame[in.a] >= frame[in.b])
		// Compare and branch: the compare's slot is written as in
		// reference code, and the target is imm's upper half, whose
		// lower half holds a K-form's constant.
		case mBrEQK:
			frame[in.b] = int64(int32(in.imm))
			fallthrough
		case mBrEQ:
			if frame[in.d] = b2i(frame[in.a] == frame[in.b]); frame[in.d] != 0 {
				pc = int(in.imm >> 32)
				continue
			}
		case mBrNEK:
			frame[in.b] = int64(int32(in.imm))
			fallthrough
		case mBrNE:
			if frame[in.d] = b2i(frame[in.a] != frame[in.b]); frame[in.d] != 0 {
				pc = int(in.imm >> 32)
				continue
			}
		case mBrLTK:
			frame[in.b] = int64(int32(in.imm))
			fallthrough
		case mBrLT:
			if frame[in.d] = b2i(frame[in.a] < frame[in.b]); frame[in.d] != 0 {
				pc = int(in.imm >> 32)
				continue
			}
		case mBrLEK:
			frame[in.b] = int64(int32(in.imm))
			fallthrough
		case mBrLE:
			if frame[in.d] = b2i(frame[in.a] <= frame[in.b]); frame[in.d] != 0 {
				pc = int(in.imm >> 32)
				continue
			}
		case mBrGTK:
			frame[in.b] = int64(int32(in.imm))
			fallthrough
		case mBrGT:
			if frame[in.d] = b2i(frame[in.a] > frame[in.b]); frame[in.d] != 0 {
				pc = int(in.imm >> 32)
				continue
			}
		case mBrGEK:
			frame[in.b] = int64(int32(in.imm))
			fallthrough
		case mBrGE:
			if frame[in.d] = b2i(frame[in.a] >= frame[in.b]); frame[in.d] != 0 {
				pc = int(in.imm >> 32)
				continue
			}
		case mGetF:
			frame[in.d] = env.GetField(int(in.imm))
		case mPutF:
			env.SetField(int(in.imm), frame[in.a])
		case mNewArr:
			h, err := env.NewArray(ast.Kind(in.imm), int64(int32(frame[in.a])))
			if err != nil {
				return c.unwindErr(err)
			}
			frame[in.d] = h
		case mALoad:
			v, err := env.ArrayLoad(frame[in.a], int64(int32(frame[in.b])))
			if err != nil {
				return c.unwindErr(err)
			}
			frame[in.d] = v
		case mALoadNC:
			// Bounds-check-eliminated load: no check. An in-range
			// index (which honest BCE guarantees) behaves identically;
			// the buggy path can observe the canary word.
			frame[in.d] = rawLoad(env, frame[in.a], int64(int32(frame[in.b])))
		case mAStore:
			ref, idx := frame[in.a], int64(int32(frame[in.b]))
			if err := env.ArrayStore(ref, idx, frame[in.d]); err != nil {
				return c.unwindErr(err)
			}
			if c.execBugs.gcBarrier || c.execBugs.gcClear {
				c.maybeCorrupt(env, ref, idx)
			}
		case mAStoreNC, mAStoreRaw:
			ref, idx := frame[in.a], int64(int32(frame[in.b]))
			env.ArrayStoreRaw(ref, idx, frame[in.d])
			if c.execBugs.gcBarrier || c.execBugs.gcClear {
				c.maybeCorrupt(env, ref, idx)
			}
		case mArrLen:
			n, err := env.ArrayLen(frame[in.a])
			if err != nil {
				return c.unwindErr(err)
			}
			frame[in.d] = n
		case mCall:
			regs := c.callRegs[in.a : in.a+in.b]
			callArgs := f.args[:len(regs)]
			for i, r := range regs {
				callArgs[i] = frame[r]
			}
			ret, uw := env.CallMethod(int(in.imm), callArgs)
			if uw != nil {
				return vm.ExecResult{Kind: vm.ExecUnwind, Unwind: uw}
			}
			frame[in.d] = ret
		case mPrint:
			env.Print(ast.Kind(in.imm), frame[in.a])
		case mJmp:
			pc = int(in.imm)
			continue
		case mBr:
			if frame[in.a] != 0 {
				pc = int(in.imm)
				continue
			}
		case mSwitch:
			pc = c.switches[in.b].Lookup(int64(int32(frame[in.a])))
			continue
		case mGuard:
			if frame[in.a] != in.imm {
				return c.deopt(frame, &c.deopts[in.b])
			}
		case mRet:
			return vm.ExecResult{Kind: vm.ExecReturn, Value: frame[in.a]}
		case mRetVoid:
			return vm.ExecResult{Kind: vm.ExecReturn}
		case mEnd:
			// The pc of a fall-off is the reference instruction count.
			panic(fmt.Sprintf("SIGSEGV: fell off compiled code of %s (pc %d)", c.name, c.size))
		default:
			panic(fmt.Sprintf("jit: machine op %d", in.op))
		}
		pc++
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// deopt builds the uncommon-trap exit of a failed guard from its site's
// frame-state recipe.
func (c *Code) deopt(frame []int64, site *deoptSite) vm.ExecResult {
	if c.execBugs.guardStackCrash && len(site.stack) >= 3 {
		// hs-exec-guard-stack: the trap stub faults.
		panic(fmt.Sprintf("SIGSEGV: uncommon trap stub, method %s, deopt pc %d", c.name, site.pc))
	}
	d := &vm.Deopt{PC: site.pc, Reason: "speculation failed"}
	for _, l := range site.locals {
		d.Locals = append(d.Locals, readLoc(frame, l))
	}
	for _, l := range site.stack {
		d.Stack = append(d.Stack, readLoc(frame, l))
	}
	return vm.ExecResult{Kind: vm.ExecDeopt, Deopt: d}
}

func (c *Code) unwindErr(err *vm.RuntimeError) vm.ExecResult {
	e := *err
	e.Msg = e.Msg + " (in " + c.name + ")"
	return vm.ExecResult{Kind: vm.ExecUnwind, Unwind: &vm.Unwind{Err: &e}}
}

func readLoc(frame []int64, l loc) int64 {
	if l.isConst {
		return l.val
	}
	return frame[l.val]
}

// rawLoad performs an unchecked array read. Indexes inside the object
// (including the canary word) read whatever is there; anything else is
// a compiled-code fault.
func rawLoad(env vm.Env, ref, idx int64) int64 {
	n, err := env.ArrayLen(ref)
	if err != nil {
		panic("SIGSEGV: unchecked load from invalid array")
	}
	if idx < 0 || idx > n {
		panic(fmt.Sprintf("SIGSEGV: unchecked load at %d (length %d)", idx, n))
	}
	if idx == n {
		// Reading the canary word through the eliminated check.
		v, _ := env.ArrayLoad(ref, n-1)
		return v ^ 0x5ca1ab1e
	}
	v, err2 := env.ArrayLoad(ref, idx)
	if err2 != nil {
		panic("SIGSEGV: unchecked load raced bounds")
	}
	return v
}

// maybeCorrupt applies the heap-corrupting store defects: oj-gc-barrier
// smashes the canary of 4-aligned arrays on stores to element 0;
// art-gc-clear does it on stores to the last element. The damage is
// silent here and discovered later by the garbage collector.
func (c *Code) maybeCorrupt(env vm.Env, ref, idx int64) {
	n, err := env.ArrayLen(ref)
	if err != nil || n < 4 || n%4 != 0 {
		return
	}
	if c.execBugs.gcBarrier && idx == 0 {
		env.ArrayStoreRaw(ref, n, 0x0badbeef)
	}
	if c.execBugs.gcClear && idx == n-1 {
		env.ArrayStoreRaw(ref, n, 0x0badbeef)
	}
}
