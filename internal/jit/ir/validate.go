// SSA invariant validation. Validate is the compiler's self-check
// layer: run between passes (under jit.Options.ValidateIR) it pins a
// violation to the pass that introduced it, which lets automatic fault
// localization distinguish "this pass mis-compiled the program" from
// "this pass broke the IR and a later stage mis-lowered the wreckage".
//
// The checks are deliberately limited to properties every pass must
// preserve:
//
//   - CFG consistency: terminator shape per block kind, succ/pred
//     symmetry, value back-pointers, switch case routing.
//   - Phi shape: arity equals the predecessor count (args parallel
//     Preds), phis never carry frame states.
//   - Guards carry a frame state (there is nothing to deoptimize to
//     without one).
//   - Use-dominance at block granularity: a def's block dominates the
//     use's block (for phis: the corresponding predecessor; for
//     controls and frame states: the consuming block).
//   - Effect-list ordering: an effectful value's effectful arguments
//     in the same block must precede it — the effect list executes in
//     order, so a store listed before the allocation it targets is
//     corrupt IR even though the SSA graph looks fine.
//
// Intra-block order of *pure* values is intentionally not checked:
// code motion parks pure values wherever (lowering schedules them by
// dependency), so list position carries no meaning for them.

package ir

import "fmt"

// Validate checks the SSA invariants of f and returns the first
// violation found (nil when the IR is well-formed). Dominance checks
// cover reachable blocks; structural checks cover every block.
func Validate(f *Func) error {
	if f.Entry == nil {
		return fmt.Errorf("no entry block")
	}
	for _, b := range f.Blocks {
		if err := validateBlockShape(b); err != nil {
			return err
		}
	}
	if err := validateEdges(f); err != nil {
		return err
	}

	idom := f.Dominators()
	reachable := func(b *Block) bool { return int(b.ID) < len(idom) && idom[b.ID] != nil }

	// Position of each value in its block, for effect-order checks.
	pos := map[*Value]int{}
	for _, b := range f.Blocks {
		for i, v := range b.Values {
			pos[v] = i
		}
	}

	for _, b := range f.Blocks {
		for i, v := range b.Values {
			if v == nil {
				return fmt.Errorf("%s: nil value at index %d", b, i)
			}
			if v.Block != b {
				return fmt.Errorf("%s: v%d has stale block pointer %s", b, v.ID, v.Block)
			}
			switch v.Op {
			case OpPhi:
				if len(v.Args) != len(b.Preds) {
					return fmt.Errorf("%s: phi v%d has %d args for %d preds", b, v.ID, len(v.Args), len(b.Preds))
				}
				if v.FS != nil {
					return fmt.Errorf("%s: phi v%d carries a frame state", b, v.ID)
				}
			case OpGuard:
				if v.FS == nil {
					return fmt.Errorf("%s: guard v%d has no frame state", b, v.ID)
				}
			}
			for ai, a := range v.Args {
				if a == nil {
					return fmt.Errorf("%s: v%d arg %d is nil", b, v.ID, ai)
				}
				if _, known := pos[a]; !known {
					return fmt.Errorf("%s: v%d uses v%d, which is in no block", b, v.ID, a.ID)
				}
				if !reachable(b) {
					continue
				}
				if v.Op == OpPhi {
					pred := b.Preds[ai]
					if reachable(pred) && reachable(a.Block) && !Dominates(idom, a.Block, pred) {
						return fmt.Errorf("%s: phi v%d arg %d (v%d in %s) does not dominate pred %s",
							b, v.ID, ai, a.ID, a.Block, pred)
					}
					continue
				}
				if !reachable(a.Block) || !Dominates(idom, a.Block, b) {
					return fmt.Errorf("%s: v%d uses v%d defined in %s, which does not dominate",
						b, v.ID, a.ID, a.Block)
				}
				// Effect-list ordering: effects execute in list order,
				// so an effectful consumer must follow its effectful
				// producers within the block.
				if a.Block == b && v.Effectful() && a.Effectful() && pos[a] > pos[v] {
					return fmt.Errorf("%s: effectful v%d (%s) listed before its effectful arg v%d (%s)",
						b, v.ID, v.Op, a.ID, a.Op)
				}
			}
			if v.FS != nil && reachable(b) {
				for _, a := range append(append([]*Value{}, v.FS.Locals...), v.FS.Stack...) {
					if a == nil {
						continue
					}
					if !reachable(a.Block) || !Dominates(idom, a.Block, b) {
						return fmt.Errorf("%s: guard v%d frame state uses v%d defined in %s, which does not dominate",
							b, v.ID, a.ID, a.Block)
					}
				}
			}
		}
		if b.Ctrl != nil && reachable(b) {
			if !reachable(b.Ctrl.Block) || !Dominates(idom, b.Ctrl.Block, b) {
				return fmt.Errorf("%s: control v%d defined in %s, which does not dominate", b, b.Ctrl.ID, b.Ctrl.Block)
			}
		}
	}
	return nil
}

// validateBlockShape checks terminator arity and control presence for
// one block.
func validateBlockShape(b *Block) error {
	switch b.Kind {
	case BlockPlain:
		if len(b.Succs) != 1 {
			return fmt.Errorf("%s: plain block with %d successors", b, len(b.Succs))
		}
	case BlockIf:
		if len(b.Succs) != 2 {
			return fmt.Errorf("%s: if block with %d successors", b, len(b.Succs))
		}
		if b.Ctrl == nil {
			return fmt.Errorf("%s: if block without control value", b)
		}
	case BlockSwitch:
		if b.Ctrl == nil {
			return fmt.Errorf("%s: switch block without control value", b)
		}
		if b.DefaultSucc < 0 || b.DefaultSucc >= len(b.Succs) {
			return fmt.Errorf("%s: switch default successor %d out of range (%d succs)", b, b.DefaultSucc, len(b.Succs))
		}
		for _, c := range b.Cases {
			if c.Succ < 0 || c.Succ >= len(b.Succs) {
				return fmt.Errorf("%s: switch case %d routes to successor %d out of range (%d succs)", b, c.Value, c.Succ, len(b.Succs))
			}
		}
	case BlockRet:
		if b.Ctrl == nil {
			return fmt.Errorf("%s: return block without value", b)
		}
		if len(b.Succs) != 0 {
			return fmt.Errorf("%s: return block with %d successors", b, len(b.Succs))
		}
	case BlockRetVoid:
		if len(b.Succs) != 0 {
			return fmt.Errorf("%s: void return block with %d successors", b, len(b.Succs))
		}
	default:
		return fmt.Errorf("%s: unknown block kind %d", b, b.Kind)
	}
	return nil
}

// validateEdges checks succ/pred symmetry: every b->s edge must appear
// in both adjacency lists the same number of times (both branches of
// an if may target one block, so edges are counted, not set-checked).
func validateEdges(f *Func) error {
	type edge struct{ from, to *Block }
	succCount := map[edge]int{}
	predCount := map[edge]int{}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if s == nil {
				return fmt.Errorf("%s: nil successor", b)
			}
			succCount[edge{b, s}]++
		}
		for _, p := range b.Preds {
			if p == nil {
				return fmt.Errorf("%s: nil predecessor", b)
			}
			predCount[edge{p, b}]++
		}
	}
	for e, n := range succCount {
		if predCount[e] != n {
			return fmt.Errorf("edge %s->%s: %d succ entries but %d pred entries", e.from, e.to, n, predCount[e])
		}
	}
	for e, n := range predCount {
		if succCount[e] != n {
			return fmt.Errorf("edge %s->%s: %d pred entries but %d succ entries", e.from, e.to, n, succCount[e])
		}
	}
	return nil
}
