package jit

import (
	"fmt"

	"artemis/internal/bugs"
	"artemis/internal/jit/ir"
	"artemis/internal/vm"
)

// The machine model: compiled code runs on a flat frame of int64 slots
// ("registers"). The allocator assigns one frame slot per virtual
// register — a simple but valid allocation; the injected register-
// allocator defects alias or overflow these assignments.
//
// Machine code is a slice of packed 24-byte words (minstr). The few
// operands that do not fit a word live in side tables on the Code —
// call argument slots, switch tables and deopt recipes — and the word
// holds their index.

type mop uint8

const (
	mLdi   mop = iota // R[d] = imm
	mLdArg            // R[d] = args[imm] (prologue)
	mMov              // R[d] = R[a]
	// mGroup heads a move group: the next imm words are mMov and mLdi,
	// dispatched as one unit that counts as imm instructions.
	mGroup

	// Non-trapping binary operators, R[d] = R[a] op R[b]. Each int
	// (32-bit wrapping) opcode is directly followed by its long twin.
	mAddI
	mAddL
	mSubI
	mSubL
	mMulI
	mMulL
	mAndI
	mAndL
	mOrI
	mOrL
	mXorI
	mXorL
	mShlI
	mShlL
	mShrI
	mShrL
	mUshrI
	mUshrL
	// Division and remainder can trap, so they keep vm.EvalBinary:
	// R[d] = R[a] op R[b] with op = bytecode.Op(imm).
	mDivRemI
	mDivRemL
	mUshrL32 // long >>> with a 32-bit count mask (hs-cg-ushr-wide)
	mNegI    // R[d] = -R[a]
	mNegL
	mNotI // R[d] = ^R[a]
	mNotL
	mL2I // R[d] = int32(R[a])
	// Compares, R[d] = R[a] cond R[b]: one opcode per bytecode.Cond, in
	// its order.
	mCmpEQ
	mCmpNE
	mCmpLT
	mCmpLE
	mCmpGT
	mCmpGE
	mGetF    // R[d] = field[imm]
	mPutF    // field[imm] = R[a]
	mNewArr  // R[d] = new ast.Kind(imm)[R[a]]
	mALoad   // R[d] = R[a][R[b]] (bounds-checked)
	mALoadNC // unchecked load (clamped to the object, canary included)
	mAStore  // R[a][R[b]] = R[d] (bounds-checked)
	mAStoreNC
	mAStoreRaw // unchecked store that can hit the canary word
	mArrLen    // R[d] = R[a].length
	mCall      // R[d] = call method imm with args callRegs[a : a+b]
	mPrint     // print ast.Kind(imm) R[a]
	mJmp       // pc = imm
	mBr        // if R[a] != 0 -> imm else fallthrough
	mSwitch    // table dispatch on R[a] through switches[b]
	mGuard     // if R[a] != imm -> deopt through deopts[b]
	mRet       // return R[a]
	mRetVoid
	mEnd // closes the code; every layout ends in a jump or return first
)

// wideOp returns op, or its long twin when wide.
func wideOp(op mop, wide bool) mop {
	if wide {
		return op + 1
	}
	return op
}

// binOp returns the opcode of a binary ir operator.
func binOp(op ir.Op, wide bool) mop {
	m := mDivRemI // ir.OpDiv, ir.OpRem
	switch op {
	case ir.OpAdd:
		m = mAddI
	case ir.OpSub:
		m = mSubI
	case ir.OpMul:
		m = mMulI
	case ir.OpAnd:
		m = mAndI
	case ir.OpOr:
		m = mOrI
	case ir.OpXor:
		m = mXorI
	case ir.OpShl:
		m = mShlI
	case ir.OpShr:
		m = mShrI
	case ir.OpUshr:
		m = mUshrI
	}
	return wideOp(m, wide)
}

// regFields reports which of an instruction's d, a and b fields name
// frame slots; the rest hold side-table indexes or nothing.
func (op mop) regFields() (d, a, b bool) {
	switch op {
	case mLdi, mLdArg, mGetF, mCall:
		return true, false, false
	case mMov, mNegI, mNegL, mNotI, mNotL, mL2I, mNewArr, mArrLen:
		return true, true, false
	case mPutF, mPrint, mBr, mSwitch, mGuard, mRet:
		return false, true, false
	case mJmp, mRetVoid, mGroup, mEnd:
		return false, false, false
	}
	return true, true, true // binary operators, compares, array loads and stores
}

type mswitch struct {
	vals    []int64
	targets []int
	deflt   int
}

// loc describes where a deopt frame value lives.
type loc struct {
	isConst bool
	val     int64 // constant value or frame slot
}

// deoptSite is the reconstruction recipe for one guard.
type deoptSite struct {
	pc     int
	locals []loc
	stack  []loc
}

// minstr is one packed machine instruction: an opcode, three 32-bit
// operands and a 64-bit immediate.
type minstr struct {
	op      mop
	d, a, b int32
	imm     int64
}

// Code is one compiled method body. It implements vm.CompiledCode via
// the executor in machine.go.
type Code struct {
	name      string
	tier      int
	osr       bool
	frameSize int
	ins       []minstr
	// size is the instruction count before move grouping (Size).
	size int
	// Side tables for operands that do not fit a word.
	callRegs []int32 // argument slots of every mCall
	maxArgs  int     // the most arguments any mCall passes
	switches []mswitch
	deopts   []deoptSite
	// free holds the frames of finished activations for reuse. Each
	// Code belongs to the one VM that compiled it, so it needs no lock.
	free []*frameBuf
	// stats is filled in by the Compiler after lowering; see
	// vm.CompileStatsProvider.
	stats *vm.CompileStats
	// bug toggles consulted at execution time
	execBugs execBugSet
}

type execBugSet struct {
	guardStackCrash bool // hs-exec-guard-stack
	gcBarrier       bool // oj-gc-barrier
	gcClear         bool // art-gc-clear
	perfStorm       bool // hs-perf-osr-storm
	aliasA, aliasB  int32
	aliased         bool // hs-ra-highpressure
}

// Tier implements vm.CompiledCode.
func (c *Code) Tier() int { return c.tier }

// IsOSR implements vm.CompiledCode.
func (c *Code) IsOSR() bool { return c.osr }

// Size implements vm.CompiledCode.
func (c *Code) Size() int { return c.size }

// CompileStats implements vm.CompileStatsProvider.
func (c *Code) CompileStats() *vm.CompileStats { return c.stats }

// lower translates SSA to machine code.
func lower(f *ir.Func, tier int, bugSet bugs.Set) *Code {
	f.SplitCriticalEdges()
	f.ComputeUses()

	// Codegen-phase injected crashes.
	if tier == 1 && bugSet.Has("art-t1-bigframe") && f.NSlots > 56 {
		crashf("OptimizingCompiler", "frame layout: %d locals exceed dex register budget", f.NSlots)
	}
	if tier == 1 && bugSet.Has("art-t1-osr-switch") && f.OSRLoopID >= 0 {
		nSwitch := 0
		for _, b := range f.Blocks {
			if b.Kind == ir.BlockSwitch {
				nSwitch++
			}
		}
		if nSwitch >= 2 {
			crashf("OptimizingCompiler", "OSR entry: unexpected switch environment")
		}
	}

	// Assign a frame slot to every result-producing value.
	reg := map[*ir.Value]int32{}
	next := int32(0)
	slotOf := func(v *ir.Value) int32 {
		if r, ok := reg[v]; ok {
			return r
		}
		r := next
		next++
		reg[v] = r
		return r
	}
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			// Constants are materialized at each use site instead of
			// at their list position (passes may create them after
			// their consumers in the list).
			if v.Op == ir.OpConst {
				continue
			}
			if v.HasResult() && (v.Uses > 0 || v.Op == ir.OpCall) {
				slotOf(v)
			}
		}
	}
	nRegs := int(next)
	if tier >= 2 && bugSet.Has("oj-ra-interval") && nRegs > 700 {
		crashf("Register Allocation", "linear scan: %d live intervals overflow the interval table", nRegs)
	}
	execBugs := execBugSet{
		guardStackCrash: bugSet.Has("hs-exec-guard-stack"),
		gcBarrier:       bugSet.Has("oj-gc-barrier"),
		gcClear:         tier == 1 && bugSet.Has("art-gc-clear"),
	}
	if bugSet.Has("hs-perf-osr-storm") && f.OSRLoopID >= 2 {
		guards := 0
		for _, b := range f.Blocks {
			for _, v := range b.Values {
				if v.Op == ir.OpGuard {
					guards++
				}
			}
		}
		execBugs.perfStorm = guards >= 2
	}
	if bugSet.Has("hs-ra-highpressure") && nRegs > 96 {
		// BUG: a long-lived early register (slot 1 — typically a
		// parameter or entry-block value) is merged with a
		// mid-function temporary, whose definition clobbers it.
		execBugs.aliased = true
		execBugs.aliasA, execBugs.aliasB = 1, int32(nRegs/2)
	}

	c := &Code{name: f.Name, tier: tier, osr: f.OSRLoopID >= 0, execBugs: execBugs}

	// Layout: reverse postorder.
	order := f.ReversePostorder()
	blockStart := map[int]int{}
	type patch struct {
		ins    int
		target *ir.Block
		// table patches
		tblIdx int // -1 for imm patches
	}
	var patches []patch

	emit := func(in minstr) int {
		c.ins = append(c.ins, in)
		return len(c.ins) - 1
	}

	locOf := func(v *ir.Value) loc {
		if v.Op == ir.OpConst {
			return loc{isConst: true, val: v.Aux}
		}
		return loc{val: int64(slotOf(v))}
	}

	// ensureIn returns the frame slot holding v at the current
	// emission point. Constants are (re)materialized here, at every
	// use site — the only placement that is correct regardless of
	// where passes created them in the value lists.
	ensureIn := func(v *ir.Value) int32 {
		if v.Op == ir.OpConst {
			r := slotOf(v)
			emit(minstr{op: mLdi, d: r, imm: v.Aux})
			return r
		}
		r, ok := reg[v]
		if !ok {
			panic(fmt.Sprintf("jit: value %s has no slot and is not a constant", v))
		}
		return r
	}

	for oi, b := range order {
		blockStart[b.ID] = len(c.ins)

		// Entry prologue: parameters.
		if b == f.Entry {
			for _, v := range b.Values {
				if v.Op == ir.OpParam && v.Uses > 0 {
					emit(minstr{op: mLdArg, d: slotOf(v), imm: v.Aux})
				}
			}
		}

		for _, v := range b.Values {
			switch v.Op {
			case ir.OpPhi, ir.OpParam:
				// Phis are resolved by edge moves; params by prologue.
			case ir.OpConst:
				// Materialized at use sites by ensureIn.
			case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem, ir.OpAnd,
				ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpUshr:
				if v.Uses == 0 && !v.Trapping() {
					continue
				}
				in := minstr{op: binOp(v.Op, v.Wide), d: slotOf(v), a: ensureIn(v.Args[0]), b: ensureIn(v.Args[1])}
				switch {
				case v.Op == ir.OpDiv || v.Op == ir.OpRem:
					in.imm = int64(v.Op.BytecodeOpFor())
				case v.Op == ir.OpUshr && v.Args[1].Op != ir.OpConst:
					if v.Wide && bugSet.Has("hs-cg-ushr-wide") {
						in.op = mUshrL32 // BUG: wrong mask for long >>>
					}
					if !v.Wide && tier == 1 && bugSet.Has("art-t1-ushr-int") {
						in.op = mShrI // BUG: arithmetic shift instead
					}
				}
				emit(in)
			case ir.OpNeg:
				emit(minstr{op: wideOp(mNegI, v.Wide), d: slotOf(v), a: ensureIn(v.Args[0])})
			case ir.OpBitNot:
				emit(minstr{op: wideOp(mNotI, v.Wide), d: slotOf(v), a: ensureIn(v.Args[0])})
			case ir.OpL2I:
				if bugSet.Has("oj-cg-l2i-skip") && v.Args[0].Op.IsBinArith() &&
					(v.Args[0].Op == ir.OpShl || v.Args[0].Op == ir.OpShr || v.Args[0].Op == ir.OpUshr) {
					// BUG: truncation after shifts "optimized" to a move.
					emit(minstr{op: mMov, d: slotOf(v), a: ensureIn(v.Args[0])})
				} else {
					emit(minstr{op: mL2I, d: slotOf(v), a: ensureIn(v.Args[0])})
				}
			case ir.OpCmp:
				if v.Uses == 0 {
					continue
				}
				emit(minstr{op: mCmpEQ + mop(v.Cond), d: slotOf(v), a: ensureIn(v.Args[0]), b: ensureIn(v.Args[1])})
			case ir.OpGetField:
				if v.Uses == 0 {
					continue
				}
				emit(minstr{op: mGetF, d: slotOf(v), imm: v.Aux})
			case ir.OpPutField:
				emit(minstr{op: mPutF, a: ensureIn(v.Args[0]), imm: v.Aux})
			case ir.OpNewArr:
				emit(minstr{op: mNewArr, d: slotOf(v), a: ensureIn(v.Args[0]), imm: int64(v.Kind)})
			case ir.OpALoad:
				emit(minstr{op: mALoad, d: slotOf(v), a: ensureIn(v.Args[0]), b: ensureIn(v.Args[1])})
			case ir.OpALoadNoCheck:
				emit(minstr{op: mALoadNC, d: slotOf(v), a: ensureIn(v.Args[0]), b: ensureIn(v.Args[1])})
			case ir.OpAStore:
				emit(minstr{op: mAStore, a: ensureIn(v.Args[0]), b: ensureIn(v.Args[1]), d: ensureIn(v.Args[2])})
			case ir.OpAStoreNoCheck:
				emit(minstr{op: mAStoreNC, a: ensureIn(v.Args[0]), b: ensureIn(v.Args[1]), d: ensureIn(v.Args[2])})
			case ir.OpAStoreRaw:
				emit(minstr{op: mAStoreRaw, a: ensureIn(v.Args[0]), b: ensureIn(v.Args[1]), d: ensureIn(v.Args[2])})
			case ir.OpArrLen:
				if v.Uses == 0 {
					continue
				}
				emit(minstr{op: mArrLen, d: slotOf(v), a: ensureIn(v.Args[0])})
			case ir.OpCall:
				start := len(c.callRegs)
				for _, a := range v.Args {
					c.callRegs = append(c.callRegs, ensureIn(a))
				}
				c.maxArgs = max(c.maxArgs, len(v.Args))
				emit(minstr{op: mCall, d: slotOf(v), a: int32(start), b: int32(len(v.Args)), imm: v.Aux})
			case ir.OpPrint:
				emit(minstr{op: mPrint, a: ensureIn(v.Args[0]), imm: int64(v.Kind)})
			case ir.OpGuard:
				site := deoptSite{pc: v.FS.PC}
				for _, lv := range v.FS.Locals {
					site.locals = append(site.locals, locOf(lv))
				}
				for _, sv := range v.FS.Stack {
					site.stack = append(site.stack, locOf(sv))
				}
				// Frame-state values that live in slots must actually
				// be materialized.
				for _, lv := range v.FS.Locals {
					if lv.Op != ir.OpConst {
						ensureIn(lv)
					}
				}
				for _, sv := range v.FS.Stack {
					if sv.Op != ir.OpConst {
						ensureIn(sv)
					}
				}
				c.deopts = append(c.deopts, site)
				emit(minstr{op: mGuard, a: ensureIn(v.Args[0]), b: int32(len(c.deopts) - 1), imm: v.Aux})
			default:
				panic(fmt.Sprintf("jit: cannot lower %s", v))
			}
		}

		// Phi-resolving parallel moves on each outgoing edge happen in
		// this block when the successor has phis. After critical-edge
		// splitting, any successor with phis has us as its only
		// branch source or we are its unique predecessor edge.
		emitEdgeMoves := func(succ *ir.Block) {
			pi := succ.PredIndex(b)
			if pi < 0 {
				panic("jit: edge without pred entry")
			}
			type mv struct {
				dst, src int32
				isConst  bool
				imm      int64
			}
			var moves []mv
			for _, p := range succ.Values {
				if p.Op != ir.OpPhi {
					continue
				}
				if p.Uses == 0 {
					continue
				}
				arg := p.Args[pi]
				d := slotOf(p)
				if arg.Op == ir.OpConst {
					moves = append(moves, mv{dst: d, isConst: true, imm: arg.Aux})
				} else {
					moves = append(moves, mv{dst: d, src: slotOf(arg)})
				}
			}
			// Sequentialize the parallel move set: repeatedly emit a
			// move whose destination is not a pending source; break
			// cycles through a scratch slot.
			scratch := int32(-1)
			for len(moves) > 0 {
				progress := false
				for i := 0; i < len(moves); i++ {
					m := moves[i]
					blocked := false
					for j, o := range moves {
						if j != i && !o.isConst && o.src == m.dst {
							blocked = true
							break
						}
					}
					if blocked {
						continue
					}
					if m.isConst {
						emit(minstr{op: mLdi, d: m.dst, imm: m.imm})
					} else if m.dst != m.src {
						emit(minstr{op: mMov, d: m.dst, a: m.src})
					}
					moves = append(moves[:i], moves[i+1:]...)
					progress = true
					break
				}
				if !progress {
					// Cycle: rotate through scratch.
					if scratch < 0 {
						scratch = next
						next++
					}
					m := moves[0]
					emit(minstr{op: mMov, d: scratch, a: m.src})
					for j := range moves {
						if !moves[j].isConst && moves[j].src == m.src {
							moves[j].src = scratch
						}
					}
				}
			}
		}

		jumpTo := func(t *ir.Block) {
			// Fallthrough when t is next in layout.
			if oi+1 < len(order) && order[oi+1] == t {
				return
			}
			idx := emit(minstr{op: mJmp})
			patches = append(patches, patch{ins: idx, target: t, tblIdx: -1})
		}

		switch b.Kind {
		case ir.BlockPlain:
			emitEdgeMoves(b.Succs[0])
			jumpTo(b.Succs[0])
		case ir.BlockIf:
			// After critical-edge splitting, successors with phis are
			// single-pred blocks, so edge moves live there; but a succ
			// without phis may still be shared. Emit branch; edge
			// moves for if-successors were pushed into split blocks.
			condReg := ensureIn(b.Ctrl)
			idx := emit(minstr{op: mBr, a: condReg})
			patches = append(patches, patch{ins: idx, target: b.Succs[0], tblIdx: -1})
			emitEdgeMoves(b.Succs[1])
			jumpTo(b.Succs[1])
			// Succs[0] cannot carry phi moves (they would need a home
			// on the edge) — SplitCriticalEdges guarantees this.
			for _, p := range b.Succs[0].Values {
				if p.Op == ir.OpPhi {
					panic("jit: unsplit branch edge with phis")
				}
			}
		case ir.BlockSwitch:
			if bugSet.Has("oj-cg-switch-dense") && len(b.Cases) >= 24 {
				crashf("Code Generation", "dense switch lowering: %d entries", len(b.Cases))
			}
			tagReg := ensureIn(b.Ctrl)
			c.switches = append(c.switches, mswitch{deflt: -1})
			si := len(c.switches) - 1
			idx := emit(minstr{op: mSwitch, a: tagReg, b: int32(si)})
			tbl := &c.switches[si]
			for _, cse := range b.Cases {
				tbl.vals = append(tbl.vals, cse.Value)
				tbl.targets = append(tbl.targets, -1)
				patches = append(patches, patch{ins: idx, target: b.Succs[cse.Succ], tblIdx: len(tbl.targets) - 1})
			}
			patches = append(patches, patch{ins: idx, target: b.Succs[b.DefaultSucc], tblIdx: -2})
			for _, s := range b.Succs {
				for _, p := range s.Values {
					if p.Op == ir.OpPhi {
						panic("jit: unsplit switch edge with phis")
					}
				}
			}
		case ir.BlockRet:
			emit(minstr{op: mRet, a: ensureIn(b.Ctrl)})
		case ir.BlockRetVoid:
			emit(minstr{op: mRetVoid})
		}
	}

	// Patch jump targets.
	for _, p := range patches {
		t := blockStart[p.target.ID]
		in := &c.ins[p.ins]
		switch {
		case p.tblIdx == -1:
			in.imm = int64(t)
		case p.tblIdx == -2:
			c.switches[in.b].deflt = t
		default:
			c.switches[in.b].targets[p.tblIdx] = t
		}
	}
	c.frameSize = int(next)
	c.size = len(c.ins)

	if execBugs.aliased {
		// Apply the register-allocator aliasing defect by rewriting
		// every use of slot aliasB to aliasA.
		alias := func(r *int32) {
			if *r == execBugs.aliasB {
				*r = execBugs.aliasA
			}
		}
		for i := range c.ins {
			in := &c.ins[i]
			d, a, b := in.op.regFields()
			if d {
				alias(&in.d)
			}
			if a {
				alias(&in.a)
			}
			if b {
				alias(&in.b)
			}
		}
		for i := range c.callRegs {
			alias(&c.callRegs[i])
		}
		for i := range c.deopts {
			for j := range c.deopts[i].locals {
				l := &c.deopts[i].locals[j]
				if !l.isConst && int32(l.val) == execBugs.aliasB {
					l.val = int64(execBugs.aliasA)
				}
			}
		}
	}
	c.groupMoves()
	return c
}

// groupMoves puts an mGroup head before each maximal run of at least two
// mMov/mLdi words, so the executor dispatches the run once. A run never
// continues past a jump target, so jumps land only on a run's head.
// Jump and switch targets are remapped in order, so a back edge still
// targets an index at or below its own. An mEnd word closes the code.
func (c *Code) groupMoves() {
	isMove := func(op mop) bool { return op == mMov || op == mLdi }
	target := make([]bool, len(c.ins)+1)
	for _, in := range c.ins {
		if in.op == mJmp || in.op == mBr {
			target[in.imm] = true
		}
	}
	for _, sw := range c.switches {
		target[sw.deflt] = true
		for _, t := range sw.targets {
			target[t] = true
		}
	}
	at := make([]int, len(c.ins)+1) // unfused index -> grouped index
	out := make([]minstr, 0, len(c.ins)+len(c.ins)/8+1)
	for i := 0; i < len(c.ins); {
		j := i + 1
		for isMove(c.ins[i].op) && j < len(c.ins) && isMove(c.ins[j].op) && !target[j] {
			j++
		}
		at[i] = len(out)
		if j-i >= 2 {
			out = append(out, minstr{op: mGroup, imm: int64(j - i)})
		}
		out = append(out, c.ins[i:j]...)
		i = j
	}
	at[len(c.ins)] = len(out)
	out = append(out, minstr{op: mEnd})
	for k := range out {
		if out[k].op == mJmp || out[k].op == mBr {
			out[k].imm = int64(at[out[k].imm])
		}
	}
	for s := range c.switches {
		sw := &c.switches[s]
		sw.deflt = at[sw.deflt]
		for k, t := range sw.targets {
			sw.targets[k] = at[t]
		}
	}
	c.ins = out
}
