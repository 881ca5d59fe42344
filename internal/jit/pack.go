package jit

import (
	"artemis/internal/bytecode"
	"artemis/internal/jit/ir"
)

// Reference code has one slot per SSA value and resolves every phi with
// edge moves, so a phi that only ever equals another value still costs
// a move on each incoming edge. shareRedundantPhis removes those moves
// where that cannot be observed, and pack then packs what is left into
// weighted words. Two observers constrain both steps:
//
//   - Step accounting: compiled code is charged per reference
//     instruction. A word's weight is the number of reference
//     instructions it stands for, and the executor makes every charge
//     that falls inside a word before the word's first effect. That is
//     exact as long as a word never starts inside another path's code
//     (no jump or switch target inside a word) and everything a word
//     does before its last reference instruction is a frame write,
//     which Env.Step cannot observe.
//   - The conservative collector, which scans every frame slot while
//     the code or a callee allocates. A slot a phi no longer writes
//     keeps 0 where reference code would hold a copy of a handle; that
//     is invisible only when the copy is also in some other slot.

// shareRedundantPhis renames the slots of redundant phis: a phi web
// (a strongly connected set of phis) whose only operand from outside
// is one non-constant value v always equals v (Braun et al., "Simple
// and Efficient Construction of Static Single Assignment Form", 2013),
// so its phis can read and write v's slot, and every edge move between
// them becomes a self-move that pack drops. A web shares v's slot when
//
//   - v's definition strictly dominates every phi of the web, and every
//     use of a web phi is dominated by the phi: then at each read the
//     phi's slot would hold v's current value, even in IR a seeded
//     defect has broken elsewhere;
//   - neither v nor a web phi has a slot the hs-ra-highpressure defect
//     aliases, since an aliased slot is also written by another value;
//   - v's block lies on no CFG cycle, so v's slot is written once per
//     activation and the web's slots would only ever hold 0 or v. The
//     conservative collector then cannot tell, and no edge move group
//     that writes v's slot reads a web phi: such a group enters v's
//     block, which a web phi, dominated by v, reaches only around a
//     cycle. Edge moves are put in order before the rename, so that
//     group could otherwise overwrite v before the read.
func (c *Code) shareRedundantPhis(f *ir.Func, order []*ir.Block, reg map[*ir.Value]int32) {
	var phis []*ir.Value
	maxID := ir.ID(0)
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			maxID = max(maxID, v.ID)
		}
	}
	// num numbers the candidate phis by value ID, from 1.
	num := make([]int32, maxID+1)
	for _, b := range order {
		for _, v := range b.Values {
			if _, ok := reg[v]; ok && v.Op == ir.OpPhi {
				phis = append(phis, v)
				num[v.ID] = int32(len(phis))
			}
		}
	}
	if len(phis) == 0 {
		return
	}
	// phiIndex returns a's index in phis, or -1 when a is no candidate
	// (a value in no block has no entry in num).
	phiIndex := func(a *ir.Value) int32 {
		if a != nil && a.ID >= 0 && a.ID <= maxID {
			return num[a.ID] - 1
		}
		return -1
	}
	idom := f.Dominators()
	reachable := func(b *ir.Block) bool { return idom[b.ID] != nil }

	// bad marks phis with a use their definition does not dominate.
	bad := make([]bool, len(phis))
	check := func(a *ir.Value, at *ir.Block) {
		if i := phiIndex(a); i >= 0 && !ir.Dominates(idom, a.Block, at) {
			bad[i] = true
		}
	}
	for _, b := range order {
		for _, v := range b.Values {
			if v.Op == ir.OpPhi {
				for i, a := range v.Args {
					if i < len(b.Preds) && reachable(b.Preds[i]) {
						check(a, b.Preds[i])
					}
				}
				continue
			}
			for _, a := range v.Args {
				check(a, b)
			}
			if v.FS != nil {
				for _, a := range v.FS.Locals {
					check(a, b)
				}
				for _, a := range v.FS.Stack {
					check(a, b)
				}
			}
		}
		if b.Ctrl != nil {
			check(b.Ctrl, b)
		}
	}

	aliased := func(v *ir.Value) bool {
		r := reg[v]
		return c.execBugs.aliased && (r == c.execBugs.aliasA || r == c.execBugs.aliasB)
	}
	onCycle := cfgCycles(order)
	accept := func(web []int32, v *ir.Value) bool {
		if _, ok := reg[v]; !ok || v.Op == ir.OpConst || !reachable(v.Block) || onCycle[v.Block.ID] || aliased(v) {
			return false
		}
		for _, i := range web {
			p := phis[i]
			if bad[i] || aliased(p) || p.Block == v.Block || !ir.Dominates(idom, v.Block, p.Block) {
				return false
			}
		}
		return true
	}

	// to maps each shared phi to the value whose slot it takes.
	to := make([]*ir.Value, len(phis))
	off := make([]int32, len(phis)+1)
	var adj []int32
	for k, p := range phis {
		for _, a := range p.Args {
			if x := phiIndex(a); x >= 0 {
				adj = append(adj, x)
			}
		}
		off[k+1] = int32(len(adj))
	}
	sccOrder, compOf := sccs(off, adj)
	// Tarjan's order visits a web after every web it reads, so an
	// operand from a shared web resolves to that web's value. Braun et
	// al. also look for webs nested in a web that is not redundant, but
	// such a web could only stand for a phi of the outer one, which lies
	// on a CFG cycle and so never shares.
	shared := false
	web := make([]int32, 0, len(phis))
	for lo := 0; lo < len(sccOrder); {
		ci := compOf[sccOrder[lo]]
		web = web[:0]
		for ; lo < len(sccOrder) && compOf[sccOrder[lo]] == ci; lo++ {
			web = append(web, sccOrder[lo])
		}
		var outer *ir.Value
		single := true
		for _, i := range web {
			for _, a := range phis[i].Args {
				x := phiIndex(a)
				if x >= 0 && compOf[x] == ci {
					continue
				}
				if x >= 0 && to[x] != nil {
					a = to[x]
				}
				if outer == nil {
					outer = a
				} else if a != outer {
					single = false
				}
			}
		}
		if outer != nil && single && accept(web, outer) {
			for _, i := range web {
				to[i] = outer
			}
			shared = true
		}
	}
	if !shared {
		return
	}

	slot := make([]int32, c.frameSize)
	for i := range slot {
		slot[i] = int32(i)
	}
	for i, p := range phis {
		if v := to[i]; v != nil {
			slot[reg[p]] = reg[v]
		}
	}
	for i := range c.ins {
		in := &c.ins[i]
		d, a, b := in.op.regFields()
		if d {
			in.d = slot[in.d]
		}
		if a {
			in.a = slot[in.a]
		}
		if b {
			in.b = slot[in.b]
		}
	}
	for i, r := range c.callRegs {
		c.callRegs[i] = slot[r]
	}
	rename := func(locs []loc) {
		for j := range locs {
			if !locs[j].isConst {
				locs[j].val = int64(slot[locs[j].val])
			}
		}
	}
	for i := range c.deopts {
		rename(c.deopts[i].locals)
		rename(c.deopts[i].stack)
	}
}

// cfgCycles reports, by block ID, which reachable blocks lie on a CFG
// cycle.
func cfgCycles(order []*ir.Block) []bool {
	maxID := 0
	for _, b := range order {
		maxID = max(maxID, b.ID)
	}
	pos := make([]int32, maxID+1)
	for i, b := range order {
		pos[b.ID] = int32(i)
	}
	off := make([]int32, len(order)+1)
	var adj []int32
	for i, b := range order {
		for _, s := range b.Succs {
			adj = append(adj, pos[s.ID])
		}
		off[i+1] = int32(len(adj))
	}
	sccOrder, compOf := sccs(off, adj)
	size := make([]int32, len(order))
	for _, i := range sccOrder {
		size[compOf[i]]++
	}
	onCycle := make([]bool, maxID+1)
	for i, b := range order {
		onCycle[b.ID] = size[compOf[i]] > 1
		for _, s := range b.Succs {
			onCycle[b.ID] = onCycle[b.ID] || s == b
		}
	}
	return onCycle
}

// sccs returns the strongly connected components of the graph on nodes
// 0..n-1 whose edges from node i are adj[off[i]:off[i+1]]. order lists
// the nodes component by component, each component after every
// component it reaches (Tarjan's order); compOf numbers each node's
// component.
func sccs(off, adj []int32) (order, compOf []int32) {
	n := len(off) - 1
	index := make([]int32, 2*n) // DFS number + 1 (0 = unvisited), then low link
	low := index[n:]
	compOf = make([]int32, n)
	for i := range compOf {
		compOf[i] = -1
	}
	order = make([]int32, 0, n)
	var stack []int32
	type call struct{ v, e int32 }
	var calls []call
	next, ncomp := int32(1), int32(0)
	for root := int32(0); int(root) < n; root++ {
		if index[root] != 0 {
			continue
		}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		calls = append(calls, call{root, off[root]})
		for len(calls) > 0 {
			top := &calls[len(calls)-1]
			v := top.v
			if top.e < off[v+1] {
				w := adj[top.e]
				top.e++
				switch {
				case index[w] == 0:
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					calls = append(calls, call{w, off[w]})
				case compOf[w] < 0:
					low[v] = min(low[v], index[w])
				}
				continue
			}
			calls = calls[:len(calls)-1]
			if len(calls) > 0 {
				u := calls[len(calls)-1].v
				low[u] = min(low[u], low[v])
			}
			if low[v] == index[v] {
				k := len(stack) - 1
				for stack[k] != v {
					k--
				}
				for _, w := range stack[k:] {
					compOf[w] = ncomp
				}
				order = append(order, stack[k:]...)
				stack = stack[:k]
				ncomp++
			}
		}
	}
	return order, compOf
}

// maxRun bounds the reference instructions one move group covers, so a
// word's weight fits its 16 bits with room for a fused jump.
const maxRun = 1 << 14

// pack turns reference code into the words the executor runs and
// returns, for each reference instruction and for the end of the code,
// the index of the word that covers it. Each word covers consecutive
// reference instructions and none of them but the first is a jump or
// switch target:
//
//   - a run of moves and constant loads becomes one mGroup of (d, a)
//     pairs, or an mGroupJmp with the jump after it; a self-move (a
//     phi that shares its operand's slot) keeps only its weight;
//   - a constant load into an operator that has a K-form (kForms)
//     becomes that K-form, and a compare with the branch that tests it
//     a compare-and-branch word, which may also take the constant load
//     before it.
//
// An mEnd word of weight 0 closes the code.
func (c *Code) pack() []int {
	ref := c.ins
	n := len(ref)
	target := make([]bool, n+1)
	for _, in := range ref {
		if in.op == mJmp || in.op == mBr {
			target[in.imm] = true
		}
	}
	for _, sw := range c.switches {
		target[sw.Default] = true
		for _, e := range sw.Entries {
			target[e.Target] = true
		}
	}
	// joins reports whether reference instruction i can extend the word
	// that instruction i-1 is in.
	joins := func(i int) bool { return i < n && !target[i] }
	isMove := func(i int) bool { return ref[i].op == mMov || ref[i].op == mLdi }
	// brFuses reports whether the compare at i fuses with the branch
	// that tests it.
	brFuses := func(i int) bool {
		return isCmp(ref[i].op) && joins(i+1) && ref[i+1].op == mBr && ref[i+1].a == ref[i].d
	}
	// kFuses reports whether the constant load at i fuses into the
	// operator after it, or into the compare and branch after it.
	kFuses := func(i int) bool {
		if ref[i].op != mLdi || !joins(i+1) {
			return false
		}
		next, k := &ref[i+1], ref[i].d
		if next.b != k && (next.a != k || !swaps(next.op)) {
			return false
		}
		if isCmp(next.op) {
			return brFuses(i+1) && ref[i].imm == int64(int32(ref[i].imm))
		}
		return int(next.op) < len(kForms) && kForms[next.op] != 0
	}
	var consts map[int64]int32
	constSlot := func(imm int64) int32 {
		s, ok := consts[imm]
		if !ok {
			if consts == nil {
				consts = map[int64]int32{}
			}
			s = int32(c.frameSize + len(c.consts))
			c.consts = append(c.consts, imm)
			consts[imm] = s
		}
		return s
	}

	at := make([]int, n+1)
	out := make([]minstr, 0, n+1)
	var moves []minstr // a run without its self-moves
	for i := 0; i < n; {
		in := ref[i]
		j := i + 1
		switch {
		case kFuses(i):
			word := ref[i+1]
			if word.b != in.d {
				word.a, word.b = word.b, word.a
				if isCmp(word.op) {
					word.op = mCmpEQ + mop(reverse[word.op-mCmpEQ])
				}
			}
			if isCmp(word.op) {
				word.op = mBrEQK + (word.op - mCmpEQ)
				word.imm = ref[i+2].imm<<32 | int64(uint32(in.imm))
				j = i + 3
			} else {
				word.op = kForms[word.op]
				word.imm = in.imm
				j = i + 2
			}
			in = word
		case brFuses(i):
			in.op = mBrEQ + (in.op - mCmpEQ)
			in.imm = ref[j].imm << 32
			j++
		case isMove(i):
			for joins(j) && isMove(j) && !kFuses(j) && j-i < maxRun {
				j++
			}
			moves = moves[:0]
			for _, m := range ref[i:j] {
				if m.op == mLdi || m.d != m.a {
					moves = append(moves, m)
				}
			}
			jump := joins(j) && ref[j].op == mJmp
			switch {
			case len(moves) == 0 && jump:
				in = ref[j]
				j++
			case len(moves) == 1 && !jump:
				in = moves[0]
			default:
				start := len(c.pairs)
				for _, m := range moves {
					if m.op == mLdi {
						m.a = constSlot(m.imm)
					}
					c.pairs = append(c.pairs, mpair{m.d, m.a})
				}
				in = minstr{op: mGroup, a: int32(start), b: int32(len(c.pairs))}
				if jump {
					in.op, in.imm = mGroupJmp, ref[j].imm
					j++
				}
			}
		}
		in.w = uint16(j - i)
		for ; i < j; i++ {
			at[i] = len(out)
		}
		out = append(out, in)
	}
	at[n] = len(out)
	out = append(out, minstr{op: mEnd})

	for k := range out {
		switch w := &out[k]; {
		case w.op == mJmp || w.op == mBr || w.op == mGroupJmp:
			w.imm = int64(at[w.imm])
		case w.op >= mBrEQ && w.op <= mBrGEK:
			w.imm = int64(at[w.imm>>32])<<32 | int64(uint32(w.imm))
		}
	}
	for s := range c.switches {
		sw := &c.switches[s]
		sw.Default = at[sw.Default]
		for k, e := range sw.Entries {
			sw.Entries[k].Target = at[e.Target]
		}
	}
	c.ins = out
	return at
}

// kForms maps each operator that has a K-form to it.
var kForms = [...]mop{
	mAddI: mAddIK, mAddL: mAddLK, mSubI: mSubIK, mMulI: mMulIK, mMulL: mMulLK,
	mAndI: mAndIK, mAndL: mAndLK, mOrI: mOrIK, mOrL: mOrLK, mXorI: mXorIK, mXorL: mXorLK,
	mShlL: mShlLK, mShrI: mShrIK, mUshrI: mUshrIK, mUshrL: mUshrLK,
}

func isCmp(op mop) bool { return op >= mCmpEQ && op <= mCmpGE }

// swaps reports whether op may take its operands in either order: a
// commutative operator, or a compare, whose condition then reverses.
func swaps(op mop) bool {
	switch op {
	case mAddI, mAddL, mMulI, mMulL, mAndI, mAndL, mOrI, mOrL, mXorI, mXorL:
		return true
	}
	return isCmp(op)
}

// reverse maps each bytecode.Cond to the condition that holds with its
// operands swapped.
var reverse = [...]bytecode.Cond{
	bytecode.CondEQ: bytecode.CondEQ, bytecode.CondNE: bytecode.CondNE,
	bytecode.CondLT: bytecode.CondGT, bytecode.CondLE: bytecode.CondGE,
	bytecode.CondGT: bytecode.CondLT, bytecode.CondGE: bytecode.CondLE,
}
