package ir

import "testing"

// buildDiamond constructs:
//
//	entry -> a -> {b, c} -> d(ret)
func buildDiamond() (*Func, *Block, *Block, *Block, *Block) {
	f := NewFunc("t", 0, 0, 0, -1)
	a := f.NewBlock()
	b := f.NewBlock()
	c := f.NewBlock()
	d := f.NewBlock()
	f.Entry = a
	cond := f.NewValue(a, OpConst)
	cond.Aux = 1
	a.Kind = BlockIf
	a.Ctrl = cond
	a.AddEdge(b)
	a.AddEdge(c)
	b.Kind = BlockPlain
	b.AddEdge(d)
	c.Kind = BlockPlain
	c.AddEdge(d)
	d.Kind = BlockRetVoid
	return f, a, b, c, d
}

func TestDominatorsDiamond(t *testing.T) {
	f, a, b, c, d := buildDiamond()
	idom := f.Dominators()
	if idom[b.ID] != a || idom[c.ID] != a || idom[d.ID] != a {
		t.Errorf("diamond idoms wrong: b<-%v c<-%v d<-%v", idom[b.ID], idom[c.ID], idom[d.ID])
	}
	if !Dominates(idom, a, d) {
		t.Error("a should dominate d")
	}
	if Dominates(idom, b, d) {
		t.Error("b must not dominate d")
	}
}

func TestLoopsAndFrequencies(t *testing.T) {
	// entry -> head <-> body ; head -> exit
	f := NewFunc("t", 0, 0, 0, -1)
	entry := f.NewBlock()
	head := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	f.Entry = entry
	entry.Kind = BlockPlain
	entry.AddEdge(head)
	cond := f.NewValue(head, OpConst)
	head.Kind = BlockIf
	head.Ctrl = cond
	head.AddEdge(exit)
	head.AddEdge(body)
	body.Kind = BlockPlain
	body.AddEdge(head)
	exit.Kind = BlockRetVoid

	f.ComputeLoops()
	if len(f.Loops) != 1 {
		t.Fatalf("loops = %d", len(f.Loops))
	}
	l := f.Loops[0]
	if l.Header != head || !l.Blocks[body.ID] || l.Blocks[exit.ID] {
		t.Errorf("loop membership wrong: %+v", l)
	}
	if head.LoopDepth != 1 || body.LoopDepth != 1 || exit.LoopDepth != 0 {
		t.Errorf("depths: head=%d body=%d exit=%d", head.LoopDepth, body.LoopDepth, exit.LoopDepth)
	}
	if body.Freq <= entry.Freq {
		t.Error("loop body should have higher frequency estimate")
	}
}

func TestRemoveUnreachable(t *testing.T) {
	f, a, b, _, d := buildDiamond()
	// Cut the a->c edge, making c unreachable.
	a.Kind = BlockPlain
	a.Succs = a.Succs[:1]
	f.RemoveUnreachable()
	for _, blk := range f.Blocks {
		if blk != a && blk != b && blk != d {
			t.Errorf("unreachable block %v survived", blk)
		}
	}
	if len(d.Preds) != 1 {
		t.Errorf("d preds = %d after pruning", len(d.Preds))
	}
}

func TestPhiArgRemovalOnPrune(t *testing.T) {
	f, a, b, c, d := buildDiamond()
	x := f.NewValue(b, OpConst)
	y := f.NewValue(c, OpConst)
	phi := f.NewValue(d, OpPhi, x, y)
	_ = phi
	a.Kind = BlockPlain
	a.Succs = a.Succs[:1] // drop edge to c
	f.RemoveUnreachable()
	if len(phi.Args) != 1 || phi.Args[0] != x {
		t.Errorf("phi args not pruned: %v", phi.Args)
	}
}

func TestComputeUsesAndRemoveDead(t *testing.T) {
	f, a, _, _, d := buildDiamond()
	dead := f.NewValue(a, OpConst)
	dead.Aux = 42
	live := f.NewValue(a, OpConst)
	live.Aux = 7
	d.Kind = BlockRet
	d.Ctrl = live
	f.ComputeUses()
	if live.Uses != 1 || dead.Uses != 0 {
		t.Errorf("uses: live=%d dead=%d", live.Uses, dead.Uses)
	}
	f.RemoveDead()
	for _, v := range a.Values {
		if v == dead {
			t.Error("dead const survived DCE")
		}
	}
	found := false
	for _, v := range a.Values {
		if v == live {
			found = true
		}
	}
	if !found {
		t.Error("live const removed by DCE")
	}
}

func TestEffectfulNeverRemoved(t *testing.T) {
	f, a, _, _, _ := buildDiamond()
	val := f.NewValue(a, OpConst)
	store := f.NewValue(a, OpPutField, val)
	store.Aux = 0
	f.RemoveDead()
	present := false
	for _, v := range a.Values {
		if v == store {
			present = true
		}
	}
	if !present {
		t.Error("effectful store removed")
	}
}

func TestSplitCriticalEdges(t *testing.T) {
	f, _, b, c, d := buildDiamond()
	x := f.NewValue(b, OpConst)
	y := f.NewValue(c, OpConst)
	f.NewValue(d, OpPhi, x, y)
	f.SplitCriticalEdges()
	// a has two succs; both b and c are single-pred so no split
	// needed there; d has phis but its preds are single-succ blocks.
	for _, blk := range f.Blocks {
		if len(blk.Succs) >= 2 {
			for _, s := range blk.Succs {
				hasPhi := false
				for _, v := range s.Values {
					if v.Op == OpPhi {
						hasPhi = true
					}
				}
				if hasPhi {
					t.Errorf("edge %v->%v still carries phis", blk, s)
				}
			}
		}
	}
}

func TestTrappingClassification(t *testing.T) {
	f := NewFunc("t", 0, 0, 0, -1)
	b := f.NewBlock()
	f.Entry = b
	b.Kind = BlockRetVoid
	x := f.NewValue(b, OpConst)
	x.Aux = 10
	zero := f.NewValue(b, OpConst)
	zero.Aux = 0
	three := f.NewValue(b, OpConst)
	three.Aux = 3
	v := f.NewValue(b, OpDiv, x, three)
	if v.Trapping() {
		t.Error("division by non-zero constant should not trap")
	}
	w := f.NewValue(b, OpDiv, x, zero)
	if !w.Trapping() {
		t.Error("division by zero constant must trap")
	}
	u := f.NewValue(b, OpDiv, x, v)
	if !u.Trapping() {
		t.Error("division by non-constant must be treated as trapping")
	}
	add := f.NewValue(b, OpAdd, x, three)
	if add.Effectful() {
		t.Error("add is pure")
	}
	call := f.NewValue(b, OpCall)
	if !call.Effectful() {
		t.Error("call is effectful")
	}
}

func TestInsertAfter(t *testing.T) {
	f := NewFunc("t", 0, 0, 0, -1)
	b := f.NewBlock()
	f.Entry = b
	b.Kind = BlockRetVoid
	v1 := f.NewValue(b, OpConst)
	v2 := f.NewValue(b, OpConst)
	v3 := f.NewValue(b, OpConst) // appended last
	InsertAfter(v3, v1)
	want := []*Value{v1, v3, v2}
	for i, v := range b.Values {
		if v != want[i] {
			t.Fatalf("order wrong at %d: %v", i, b.Values)
		}
	}
}
