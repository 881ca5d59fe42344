package vm

// BranchProfile counts the outcomes of one bytecode branch.
type BranchProfile struct {
	Taken    int64
	NotTaken int64
}

// MethodProfile is the interpreter-collected profile of one method.
// The optimizing JIT consumes it to decide speculative optimizations:
// a branch that has only ever gone one way is compiled as a straight
// line with an uncommon trap on the other edge — exactly the mechanism
// JoNM mutations exploit (Section 3.3 of the paper).
type MethodProfile struct {
	// Branches maps bytecode pc of OpIfTrue/OpIfFalse/OpIfCmp to
	// outcome counts. "Taken" means the branch to A was followed.
	Branches map[int]*BranchProfile
}

func newMethodProfile() *MethodProfile {
	return &MethodProfile{Branches: map[int]*BranchProfile{}}
}

// reset empties the profile in place, keeping the map allocation for
// the next run (Scratch reuse).
func (p *MethodProfile) reset() { clear(p.Branches) }

func (p *MethodProfile) branch(pc int, taken bool) {
	b := p.Branches[pc]
	if b == nil {
		b = &BranchProfile{}
		p.Branches[pc] = b
	}
	if taken {
		b.Taken++
	} else {
		b.NotTaken++
	}
}

// Counters is the per-method counter set C_m of Definition 3.2:
// c0 is the method (invocation) counter, Backedge[i] is the back-edge
// counter of loop i. Only the interpreter counts back edges.
type Counters struct {
	Invocations int64
	Backedge    []int64
}

// Max returns the hottest counter value.
func (c *Counters) Max() int64 {
	m := c.Invocations
	for _, b := range c.Backedge {
		if b > m {
			m = b
		}
	}
	return m
}

// Temperature computes τ(m) under thresholds Z[0..N-1] (Z_1..Z_N of
// Definition 3.1): the result is i such that the hottest counter lies
// in [Z_i, Z_{i+1}), with 0 meaning "interpreted".
func (c *Counters) Temperature(thresholds []int64) int {
	return temperatureOf(c.Max(), thresholds)
}

func temperatureOf(v int64, thresholds []int64) int {
	t := 0
	for i, z := range thresholds {
		if v >= z {
			t = i + 1
		}
	}
	return t
}
