// Package jit implements the VM's JIT compilers: a non-optimizing
// tier-1 ("quick") compiler and an optimizing tier-2 compiler built on
// an SSA IR with profile-guided speculation and uncommon traps. The
// package also hosts the injected-bug hooks used to simulate the
// production-JVM defects the paper's campaigns discover.
package jit

import (
	"fmt"

	"artemis/internal/bytecode"
	"artemis/internal/jit/ir"
	"artemis/internal/lang/ast"
	"artemis/internal/vm"
)

// buildConfig parameterizes SSA construction.
type buildConfig struct {
	// speculate enables profile-guided branch pruning with uncommon
	// traps.
	speculate bool
	// bugStaleLocalFS injects the de-optimization bug: guard frame
	// states capture block-entry locals rather than current locals, so
	// resuming after a trap observes stale values.
	bugStaleLocalFS bool
	// bugGraphAssert injects an "ideal graph building" assertion
	// failure on large switch-heavy methods.
	bugGraphAssert bool
}

// compilerCrash is panicked by injected assert-style bugs and caught
// at the jit.Compiler boundary, where it becomes a VM crash.
type compilerCrash struct {
	component string
	msg       string
}

func crashf(component, format string, args ...any) {
	panic(compilerCrash{component: component, msg: fmt.Sprintf(format, args...)})
}

// buildSSA translates one bytecode method to SSA. For OSR requests
// (osrLoop >= 0) the function entry materializes every local slot as a
// parameter and control starts at the loop header. It returns nil for
// an OSR request at a header no path from the method entry reaches: the
// interpreter never runs its back edge, and its stack depth is unknown.
func buildSSA(prog *bytecode.Program, mi, osrLoop int, prof *vm.MethodProfile, cfg buildConfig) *ir.Func {
	m := prog.Methods[mi]
	entryPC := 0
	if osrLoop >= 0 {
		entryPC = m.Loops[osrLoop].HeadPC
	}
	depths := bytecode.StackDepths(m)
	if depths[entryPC] != 0 {
		return nil
	}
	f := ir.NewFunc(m.Name, mi, m.NParams, len(m.Locals), osrLoop)

	// --- Block discovery over the bytecode CFG -------------------------
	// A block starts at the entry, at every successor of a block-ending
	// instruction, and after one. The verifier guarantees successors
	// are in range and that only a block end can be the last pc.
	isLeader := make([]bool, len(m.Code))
	isLeader[entryPC] = true
	succs := make([]int, 0, 8) // on the stack unless a switch outgrows it
	for pc, in := range m.Code {
		if in.Op.EndsBlock() {
			succs = m.Succs(succs[:0], pc)
			for _, s := range succs {
				isLeader[s] = true
			}
			if pc+1 < len(m.Code) {
				isLeader[pc+1] = true
			}
		}
	}

	blockAt := map[int]*ir.Block{}
	entry := f.NewBlock()
	f.Entry = entry

	// blockEnd returns the last pc of the block starting at leader pc.
	blockEnd := func(pc int) int {
		for !m.Code[pc].Op.EndsBlock() && !isLeader[pc+1] {
			pc++
		}
		return pc
	}

	// Reachable leaders from entryPC, and predecessor counts.
	reached := map[int]bool{}
	var stack []int
	stack = append(stack, entryPC)
	reached[entryPC] = true
	predCount := map[int]int{}
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		succs = m.Succs(succs[:0], blockEnd(pc))
		for _, s := range succs {
			predCount[s]++
			if !reached[s] {
				reached[s] = true
				stack = append(stack, s)
			}
		}
	}
	// Iterate leaders in bytecode order so block and value IDs are
	// deterministic (map order would scramble diagnostics).
	var leaderPCs []int
	for pc := 0; pc < len(m.Code); pc++ {
		if reached[pc] {
			leaderPCs = append(leaderPCs, pc)
		}
	}
	for _, pc := range leaderPCs {
		blockAt[pc] = f.NewBlock()
	}

	// --- Abstract interpretation state ---------------------------------
	type state struct {
		locals []*ir.Value
		stack  []*ir.Value
	}
	cloneState := func(s *state) *state {
		return &state{
			locals: append([]*ir.Value(nil), s.locals...),
			stack:  append([]*ir.Value(nil), s.stack...),
		}
	}

	// Entry block: parameters (or all slots for OSR), zeros elsewhere.
	entrySt := &state{locals: make([]*ir.Value, len(m.Locals))}
	var zero *ir.Value
	mkZero := func() *ir.Value {
		if zero == nil {
			zero = f.NewValue(entry, ir.OpConst)
			zero.Aux = 0
		}
		return zero
	}
	nParamVals := m.NParams
	if osrLoop >= 0 {
		nParamVals = len(m.Locals)
	}
	for i := range m.Locals {
		if i < nParamVals {
			p := f.NewValue(entry, ir.OpParam)
			p.Aux = int64(i)
			entrySt.locals[i] = p
		} else {
			entrySt.locals[i] = mkZero()
		}
	}
	entry.Kind = ir.BlockPlain
	entry.AddEdge(blockAt[entryPC])

	// Phi scaffolding for join blocks (including loop headers): every
	// local and stack slot gets a phi; unused ones die in DCE.
	phiLocals := map[int][]*ir.Value{}
	phiStack := map[int][]*ir.Value{}
	entryState := map[int]*state{}
	needPhis := func(pc int) bool {
		n := predCount[pc]
		if pc == entryPC {
			n++ // the synthetic entry edge
		}
		return n > 1
	}
	for _, pc := range leaderPCs {
		if !needPhis(pc) {
			continue
		}
		b := blockAt[pc]
		st := &state{locals: make([]*ir.Value, len(m.Locals))}
		var pls []*ir.Value
		for i := range m.Locals {
			phi := f.NewValue(b, ir.OpPhi)
			st.locals[i] = phi
			pls = append(pls, phi)
		}
		var pss []*ir.Value
		d := depths[pc]
		for i := 0; i < d; i++ {
			phi := f.NewValue(b, ir.OpPhi)
			st.stack = append(st.stack, phi)
			pss = append(pss, phi)
		}
		phiLocals[pc] = pls
		phiStack[pc] = pss
		entryState[pc] = st
	}
	if !needPhis(entryPC) {
		entryState[entryPC] = cloneState(entrySt)
	}

	// edgeStates[to] collects (fromBlock, state) in edge order.
	type edgeIn struct {
		from *ir.Block
		st   *state
	}
	edgeStates := map[int][]edgeIn{}
	addEdge := func(from *ir.Block, toPC int, st *state) {
		from.AddEdge(blockAt[toPC])
		edgeStates[toPC] = append(edgeStates[toPC], edgeIn{from, cloneState(st)})
		if entryState[toPC] == nil {
			entryState[toPC] = cloneState(st)
		}
	}
	// The synthetic entry edge into the first real block.
	edgeStates[entryPC] = append(edgeStates[entryPC], edgeIn{entry, cloneState(entrySt)})
	if entryState[entryPC] == nil {
		entryState[entryPC] = cloneState(entrySt)
	}

	// --- Translate each reachable block --------------------------------
	// Process in bytecode order (any order works: join states come from
	// pre-created phis, single-pred states are patched afterwards via
	// edgeStates — to keep it simple we do two passes: first translate
	// with placeholder states for single-pred blocks resolved on the
	// fly in RPO-ish order).
	var order []int
	for pc := 0; pc < len(m.Code); pc++ {
		if reached[pc] && blockAt[pc] != nil && isLeader[pc] {
			order = append(order, pc)
		}
	}

	// For single-pred blocks we must know the incoming state before
	// translating. Translate in a worklist order where a block is ready
	// when needPhis(pc) or its incoming edge state exists.
	translated := map[int]bool{}
	var translate func(startPC int)

	// captureFS snapshots the frame state at pc for deopt metadata.
	captureFS := func(pc int, st *state, blockEntry *state) *ir.FrameState {
		src := st
		if cfg.bugStaleLocalFS && blockEntry != nil {
			// Injected de-optimization bug: record the locals as they
			// were at block entry. Stack is still correct, which makes
			// the bug latent until a mutated local is observed after
			// the trap.
			src = &state{locals: blockEntry.locals, stack: st.stack}
		}
		return &ir.FrameState{
			PC:     pc,
			Locals: append([]*ir.Value(nil), src.locals...),
			Stack:  append([]*ir.Value(nil), st.stack...),
		}
	}

	translate = func(startPC int) {
		if translated[startPC] {
			return
		}
		translated[startPC] = true
		b := blockAt[startPC]
		st := cloneState(entryState[startPC])
		blockEntry := cloneState(st)
		end := blockEnd(startPC)

		push := func(v *ir.Value) { st.stack = append(st.stack, v) }
		pop := func() *ir.Value {
			v := st.stack[len(st.stack)-1]
			st.stack = st.stack[:len(st.stack)-1]
			return v
		}
		newVal := func(op ir.Op, args ...*ir.Value) *ir.Value {
			return f.NewValue(b, op, args...)
		}

		for pc := startPC; ; pc++ {
			in := m.Code[pc]
			switch in.Op {
			case bytecode.OpConst:
				v := newVal(ir.OpConst)
				v.Aux = in.A
				push(v)
			case bytecode.OpLoad:
				push(st.locals[in.A])
			case bytecode.OpStore:
				st.locals[in.A] = pop()
			case bytecode.OpPop:
				pop()
			case bytecode.OpDup:
				push(st.stack[len(st.stack)-1])
			case bytecode.OpDup2:
				a, c := st.stack[len(st.stack)-2], st.stack[len(st.stack)-1]
				push(a)
				push(c)
			case bytecode.OpGetField:
				v := newVal(ir.OpGetField)
				v.Aux = in.A
				push(v)
			case bytecode.OpPutField:
				v := newVal(ir.OpPutField, pop())
				v.Aux = in.A
			case bytecode.OpNewArr:
				v := newVal(ir.OpNewArr, pop())
				v.Kind = ast.Kind(in.Kind)
				push(v)
			case bytecode.OpALoad:
				idx := pop()
				ref := pop()
				push(newVal(ir.OpALoad, ref, idx))
			case bytecode.OpAStore:
				val := pop()
				idx := pop()
				ref := pop()
				newVal(ir.OpAStore, ref, idx, val)
			case bytecode.OpArrLen:
				push(newVal(ir.OpArrLen, pop()))
			case bytecode.OpAddL, bytecode.OpAddI, bytecode.OpSubL, bytecode.OpSubI,
				bytecode.OpMulL, bytecode.OpMulI, bytecode.OpDivL, bytecode.OpDivI,
				bytecode.OpRemL, bytecode.OpRemI, bytecode.OpAndL, bytecode.OpAndI,
				bytecode.OpOrL, bytecode.OpOrI, bytecode.OpXorL, bytecode.OpXorI,
				bytecode.OpShlL, bytecode.OpShlI, bytecode.OpShrL, bytecode.OpShrI,
				bytecode.OpUshrL, bytecode.OpUshrI:
				y := pop()
				x := pop()
				op, wide := ir.BinOpFor(in.Op)
				v := newVal(op, x, y)
				v.Wide = wide
				push(v)
			case bytecode.OpNegL, bytecode.OpNegI:
				v := newVal(ir.OpNeg, pop())
				v.Wide = in.Op == bytecode.OpNegL
				push(v)
			case bytecode.OpBitNotL, bytecode.OpBitNotI:
				v := newVal(ir.OpBitNot, pop())
				v.Wide = in.Op == bytecode.OpBitNotL
				push(v)
			case bytecode.OpL2I:
				push(newVal(ir.OpL2I, pop()))
			case bytecode.OpCmpEQ, bytecode.OpCmpNE, bytecode.OpCmpLT,
				bytecode.OpCmpLE, bytecode.OpCmpGT, bytecode.OpCmpGE:
				y := pop()
				x := pop()
				v := newVal(ir.OpCmp, x, y)
				v.Cond = in.Op.Cond()
				push(v)
			case bytecode.OpCall, bytecode.OpCallV:
				args := make([]*ir.Value, in.B)
				for i := len(args) - 1; i >= 0; i-- {
					args[i] = pop()
				}
				v := newVal(ir.OpCall, args...)
				v.Aux = in.A
				if in.Op == bytecode.OpCall {
					push(v)
				}
			case bytecode.OpPrint:
				v := newVal(ir.OpPrint, pop())
				v.Kind = ast.Kind(in.Kind)
			case bytecode.OpGoto, bytecode.OpLoopBack:
				b.Kind = ir.BlockPlain
				addEdge(b, int(in.A), st)
				return
			case bytecode.OpIfTrue, bytecode.OpIfFalse, bytecode.OpIfCmpEQ, bytecode.OpIfCmpNE,
				bytecode.OpIfCmpLT, bytecode.OpIfCmpLE, bytecode.OpIfCmpGT, bytecode.OpIfCmpGE:
				var cond *ir.Value
				// Frame state before consuming operands, so the
				// interpreter re-executes the branch on deopt.
				fs := captureFS(pc, st, blockEntry)
				switch in.Op {
				case bytecode.OpIfTrue:
					cond = pop()
				case bytecode.OpIfFalse:
					z := newVal(ir.OpConst)
					z.Aux = 0
					cond = newVal(ir.OpCmp, pop(), z)
					cond.Cond = bytecode.CondEQ
				default:
					y := pop()
					x := pop()
					cond = newVal(ir.OpCmp, x, y)
					cond.Cond = in.Op.Cond()
				}
				// Speculation: prune a one-sided branch into a guard.
				if cfg.speculate && prof != nil {
					if bp := prof.Branches[pc]; bp != nil && bp.Taken+bp.NotTaken >= minBranchSamples {
						if bp.NotTaken == 0 || bp.Taken == 0 {
							expect := int64(1)
							hot := int(in.A)
							if bp.Taken == 0 {
								expect = 0
								hot = pc + 1
							}
							g := newVal(ir.OpGuard, cond)
							g.Aux = expect
							g.FS = fs
							b.Kind = ir.BlockPlain
							addEdge(b, hot, st)
							return
						}
					}
				}
				b.Kind = ir.BlockIf
				b.Ctrl = cond
				addEdge(b, int(in.A), st)
				addEdge(b, pc+1, st)
				return
			case bytecode.OpSwitch:
				tag := pop()
				t := m.Switches[in.A]
				b.Kind = ir.BlockSwitch
				b.Ctrl = tag
				// Succ 0 = default, then one succ per entry (dedup not
				// needed: repeated targets get repeated edges and phi
				// inputs stay aligned per edge).
				addEdge(b, t.Default, st)
				b.DefaultSucc = 0
				for i, e := range t.Entries {
					addEdge(b, e.Target, st)
					b.Cases = append(b.Cases, ir.SwitchCase{Value: e.Value, Succ: i + 1})
				}
				return
			case bytecode.OpRet:
				b.Kind = ir.BlockRetVoid
				return
			case bytecode.OpRetV:
				b.Kind = ir.BlockRet
				b.Ctrl = pop()
				return
			default:
				panic(fmt.Sprintf("jit: unknown opcode %v", in.Op))
			}
			if pc == end {
				// Fallthrough into the next leader.
				b.Kind = ir.BlockPlain
				addEdge(b, pc+1, st)
				return
			}
		}
	}

	// Translate join blocks first (their entry states are phis, always
	// available), then iterate until everything reachable is done.
	for _, pc := range order {
		if needPhis(pc) {
			translate(pc)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, pc := range order {
			if !translated[pc] && entryState[pc] != nil {
				translate(pc)
				changed = true
			}
		}
	}

	// Fill phi arguments from edge states, in each block's pred order.
	for pc, pls := range phiLocals {
		b := blockAt[pc]
		ins := edgeStates[pc]
		// Align edge states with b.Preds: both were appended in the
		// same order (AddEdge appends to Preds as edges are created).
		if len(ins) != len(b.Preds) {
			panic(fmt.Sprintf("jit: edge state mismatch at pc %d: %d vs %d preds", pc, len(ins), len(b.Preds)))
		}
		for _, e := range ins {
			for i, phi := range pls {
				phi.Args = append(phi.Args, e.st.locals[i])
			}
			for i, phi := range phiStack[pc] {
				phi.Args = append(phi.Args, e.st.stack[i])
			}
		}
	}

	f.ComputeLoops()

	if cfg.bugGraphAssert {
		// Injected "Ideal Graph Building" assertion: large switch-heavy
		// methods overflow a fictitious region-node budget.
		nSwitch := 0
		for _, b := range f.Blocks {
			if b.Kind == ir.BlockSwitch && len(b.Succs) >= 8 {
				nSwitch++
			}
		}
		if nSwitch >= 1 && len(f.Blocks) > 48 {
			crashf("Ideal Graph Building", "region node budget exceeded (%d blocks)", len(f.Blocks))
		}
	}
	return f
}
