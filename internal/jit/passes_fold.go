package jit

import (
	"artemis/internal/bugs"
	"artemis/internal/bytecode"
	"artemis/internal/jit/ir"
	"artemis/internal/vm"
)

// foldConstants performs sparse constant folding and algebraic
// simplification (the "Global Constant Propagation" component).
// Arithmetic is delegated to vm.EvalBinary so the folder can never
// disagree with the interpreter — except where an injected bug says
// otherwise. It returns the number of values folded.
func foldConstants(f *ir.Func, bugSet bugs.Set) int {
	repl := map[*ir.Value]*ir.Value{}
	newConst := func(b *ir.Block, v int64) *ir.Value {
		c := f.NewValue(b, ir.OpConst)
		c.Aux = v
		return c
	}
	resolve := func(v *ir.Value) *ir.Value {
		for {
			w, ok := repl[v]
			if !ok {
				return v
			}
			v = w
		}
	}

	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for _, v := range b.Values {
				if _, dead := repl[v]; dead {
					continue
				}
				if w := simplify(f, v, resolve, newConst, bugSet); w != nil && w != v {
					repl[v] = w
					changed = true
				}
			}
		}
	}
	f.ReplaceAll(repl)
	f.RemoveDead()
	return len(repl)
}

// simplify returns a replacement for v, or nil.
func simplify(f *ir.Func, v *ir.Value, resolve func(*ir.Value) *ir.Value,
	newConst func(*ir.Block, int64) *ir.Value, bugSet bugs.Set) *ir.Value {

	argConst := func(i int) (int64, bool) {
		a := resolve(v.Args[i])
		if a.Op == ir.OpConst {
			return a.Aux, true
		}
		return 0, false
	}

	switch {
	case v.Op.IsBinArith():
		x, xok := argConst(0)
		y, yok := argConst(1)
		if xok && yok {
			if (v.Op == ir.OpDiv || v.Op == ir.OpRem) && y == 0 {
				return nil // keep the trapping instruction
			}
			if bugSet.Has("hs-gcp-fold-minint") && (v.Op == ir.OpDiv || v.Op == ir.OpRem) && y == -1 {
				min := int64(-1 << 31)
				if v.Wide {
					min = -1 << 63
				}
				if x == min {
					crashf("Global Constant Propagation, C2",
						"folding overflow: %d %s -1", x, v.Op)
				}
			}
			r, err := vm.EvalBinary(v.Op.BytecodeOpFor(v.Wide), x, y)
			if err != nil {
				return nil
			}
			return newConst(v.Block, r)
		}
		// Algebraic identities (safe for both widths).
		a0 := resolve(v.Args[0])
		switch v.Op {
		case ir.OpAdd, ir.OpOr, ir.OpXor:
			if yok && y == 0 {
				return a0
			}
			if xok && x == 0 && v.Op == ir.OpAdd {
				return resolve(v.Args[1])
			}
		case ir.OpSub, ir.OpShl, ir.OpShr, ir.OpUshr:
			if yok && y == 0 {
				return a0
			}
		case ir.OpMul:
			if yok && y == 1 {
				return a0
			}
			if yok && y == 0 {
				return newConst(v.Block, 0)
			}
		case ir.OpAnd:
			if yok && y == -1 {
				return a0
			}
		case ir.OpDiv:
			if yok && y == 1 {
				return a0
			}
		}
		return nil

	case v.Op == ir.OpNeg:
		if c, ok := argConst(0); ok {
			if v.Wide {
				return newConst(v.Block, -c)
			}
			return newConst(v.Block, int64(int32(-c)))
		}
	case v.Op == ir.OpBitNot:
		if c, ok := argConst(0); ok {
			if v.Wide {
				return newConst(v.Block, ^c)
			}
			return newConst(v.Block, int64(int32(^c)))
		}
	case v.Op == ir.OpL2I:
		a := resolve(v.Args[0])
		if a.Op == ir.OpConst {
			return newConst(v.Block, int64(int32(a.Aux)))
		}
		if a.Op == ir.OpL2I {
			return a // idempotent
		}
	case v.Op == ir.OpCmp:
		x, xok := argConst(0)
		y, yok := argConst(1)
		if xok && yok {
			if v.Cond.Eval(x, y) {
				return newConst(v.Block, 1)
			}
			return newConst(v.Block, 0)
		}
		a0, a1 := resolve(v.Args[0]), resolve(v.Args[1])
		if a0 == a1 {
			// x op x is decidable for every condition.
			if v.Cond.Eval(0, 0) {
				return newConst(v.Block, 1)
			}
			return newConst(v.Block, 0)
		}
		// (cmp.c a b) == 0  =>  cmp.!c a b
		if v.Cond == bytecode.CondEQ && a1.Op == ir.OpConst && a1.Aux == 0 && a0.Op == ir.OpCmp {
			inv := f.NewValue(v.Block, ir.OpCmp, a0.Args[0], a0.Args[1])
			inv.Cond = a0.Cond.Negate()
			inv.Wide = a0.Wide
			// List-order lowering requires defs before uses: the new
			// compare must sit at v's position, not the block end.
			ir.InsertAfter(inv, v)
			return inv
		}
	case v.Op == ir.OpPhi:
		// A phi whose inputs are all the same value (or itself)
		// collapses.
		var only *ir.Value
		for _, a := range v.Args {
			a = resolve(a)
			if a == v {
				continue
			}
			if only == nil {
				only = a
			} else if only != a {
				return nil
			}
		}
		return only
	case v.Op == ir.OpArrLen:
		a := resolve(v.Args[0])
		if a.Op == ir.OpNewArr {
			if l := resolve(a.Args[0]); l.Op == ir.OpConst {
				return newConst(v.Block, int64(int32(l.Aux)))
			}
		}
	}
	return nil
}

// foldBranches replaces BlockIf with constant controls by plain edges
// (completing sparse conditional constant propagation's control part).
// It returns the number of branches folded.
func foldBranches(f *ir.Func) int {
	folded := 0
	for _, b := range f.Blocks {
		if b.Kind != ir.BlockIf || b.Ctrl == nil || b.Ctrl.Op != ir.OpConst {
			continue
		}
		folded++
		takeIdx := 1
		if b.Ctrl.Aux != 0 {
			takeIdx = 0
		}
		dead := b.Succs[1-takeIdx]
		// Remove this edge from dead's preds (and its phi args).
		for pi, p := range dead.Preds {
			if p == b {
				dead.RemovePredEdge(pi)
				break
			}
		}
		b.Kind = ir.BlockPlain
		b.Ctrl = nil
		b.Succs = []*ir.Block{b.Succs[takeIdx]}
	}
	f.ComputeLoops() // re-derive reachability, loops, frequencies
	f.RemoveDead()
	return folded
}
