package jit

import (
	"slices"
	"testing"

	"artemis/internal/bugs"
	"artemis/internal/bytecode"
	"artemis/internal/fuzz"
	"artemis/internal/lang/sem"
	"artemis/internal/vm"
)

// referenceCode lowers req to reference code without packing it, or
// returns nil when a seeded defect crashes the compiler.
func referenceCode(c *Compiler, req vm.CompileRequest) (code *Code) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(compilerCrash); !ok {
				panic(r)
			}
			code = nil
		}
	}()
	code, _ = c.reference(req)
	return code
}

// move is one frame write a word performs before its last reference
// instruction: R[d] = R[a], or R[d] = imm when isConst.
type move struct {
	d, a    int32
	imm     int64
	isConst bool
}

// refMoves returns the moves and constant loads of reference code ins
// that are not self-moves.
func refMoves(ins []minstr) []move {
	var out []move
	for _, in := range ins {
		switch {
		case in.op == mLdi:
			out = append(out, move{d: in.d, imm: in.imm, isConst: true})
		case in.op == mMov && in.d != in.a:
			out = append(out, move{d: in.d, a: in.a})
		}
	}
	return out
}

// wordMoves returns the moves and constant loads packed word in of c
// performs.
func wordMoves(c *Code, in minstr) []move {
	switch {
	case in.op == mGroup || in.op == mGroupJmp:
		var out []move
		for _, p := range c.pairs[in.a:in.b] {
			if int(p.a) >= c.frameSize {
				out = append(out, move{d: p.d, imm: c.consts[int(p.a)-c.frameSize], isConst: true})
			} else {
				out = append(out, move{d: p.d, a: p.a})
			}
		}
		return out
	case in.op == mLdi || in.op == mMov:
		return refMoves([]minstr{in})
	case in.op >= mAddIK && in.op <= mUshrLK:
		return []move{{d: in.b, imm: in.imm, isConst: true}}
	case in.op >= mBrEQK && in.op <= mBrGEK:
		return []move{{d: in.b, imm: int64(int32(in.imm)), isConst: true}}
	}
	return nil
}

// checkPacked packs reference code c and checks the words against it:
// each word's weight is the number of reference instructions it
// covers, and the weights sum to Size; no word covers a jump or switch
// target except at its head; and each word performs exactly the moves
// and constant loads it covers, in order, except self-moves. It returns
// the number of self-moves pack dropped and of words that fuse two or
// more non-move instructions.
func checkPacked(t *testing.T, c *Code) (dropped, fused int) {
	t.Helper()
	ref := slices.Clone(c.ins)
	var targets []int
	for _, in := range ref {
		if in.op == mJmp || in.op == mBr {
			targets = append(targets, int(in.imm))
		}
	}
	for _, sw := range c.switches {
		targets = append(targets, sw.Default)
		for _, e := range sw.Entries {
			targets = append(targets, e.Target)
		}
	}
	at := c.pack()

	if c.Size() != len(ref) {
		t.Fatalf("%s: Size %d, reference code has %d instructions", c.name, c.Size(), len(ref))
	}
	sum := 0
	for _, in := range c.ins {
		sum += int(in.w)
	}
	if sum != c.Size() {
		t.Errorf("%s: weights sum to %d, Size is %d", c.name, sum, c.Size())
	}
	for _, tg := range targets {
		if tg > 0 && at[tg-1] == at[tg] {
			t.Errorf("%s: target %d lies inside word %d", c.name, tg, at[tg])
		}
	}
	for k, in := range c.ins {
		lo := slices.Index(at, k)
		if lo < 0 || lo == len(ref) && (in.op != mEnd || in.w != 0) {
			t.Errorf("%s: word %d (op %d, weight %d) covers no reference instruction", c.name, k, in.op, in.w)
		}
		if lo < 0 || lo == len(ref) {
			continue
		}
		hi := lo
		for hi < len(ref) && at[hi] == k {
			hi++
		}
		if int(in.w) != hi-lo {
			t.Errorf("%s: word %d has weight %d but covers %d reference instructions", c.name, k, in.w, hi-lo)
		}
		if want, got := refMoves(ref[lo:hi]), wordMoves(c, in); !slices.Equal(want, got) {
			t.Errorf("%s: word %d performs moves %v, reference code %v", c.name, k, got, want)
		}
		for _, r := range ref[lo:hi] {
			if r.op == mMov && r.d == r.a {
				dropped++
			}
		}
		if n := hi - lo - len(refMoves(ref[lo:hi])); n >= 2 && in.op != mGroup && in.op != mGroupJmp {
			fused++
		}
	}
	return dropped, fused
}

// recordingJIT compiles like its Compiler and keeps every request. A
// request only borrows the VM's live profile, so it keeps a copy.
type recordingJIT struct {
	*Compiler
	reqs []vm.CompileRequest
}

func (r *recordingJIT) Compile(req vm.CompileRequest) (vm.CompiledCode, *vm.CompileError) {
	kept := req
	if req.Profile != nil {
		kept.Profile = &vm.MethodProfile{Branches: map[int]*vm.BranchProfile{}}
		for pc, b := range req.Profile.Branches {
			cp := *b
			kept.Profile.Branches[pc] = &cp
		}
	}
	r.reqs = append(r.reqs, kept)
	return r.Compiler.Compile(req)
}

// TestPackedWeights checks pack on every compilation fuzzer seeds
// request at forced tier 1, at forced tier 2 and tiered, regular and
// OSR entries with their profiles, on the correct JIT and with every
// profile's defect set.
func TestPackedWeights(t *testing.T) {
	sets := []bugs.Set{nil}
	for _, jvm := range []string{"hotspot", "openj9", "art"} {
		sets = append(sets, bugs.SetForJVM(jvm))
	}
	seeds := int64(48)
	if testing.Short() {
		seeds = 8
	}
	var dropped, fused, codes int
	for seed := int64(0); seed < seeds; seed++ {
		bp := bytecode.MustCompile(sem.MustAnalyze(fuzz.Generate(fuzz.Options{Seed: seed})))
		for _, set := range sets {
			jit := &recordingJIT{Compiler: New(Options{MaxTier: 2, Bugs: set})}
			cfg := vm.Config{JIT: jit, StepLimit: 400_000}
			for _, tier := range []int{1, 2} {
				forced := cfg
				forced.Policy = &vm.ForcedPolicy{Tier: tier, Compile: forceAll}
				vm.Run(forced, bp)
			}
			cfg.EntryThresholds = []int64{30, 120}
			cfg.OSRThresholds = []int64{40, 160}
			vm.Run(cfg, bp)
			for _, req := range jit.reqs {
				if c := referenceCode(jit.Compiler, req); c != nil {
					d, f := checkPacked(t, c)
					dropped, fused, codes = dropped+d, fused+f, codes+1
				}
			}
		}
	}
	if dropped == 0 || fused == 0 {
		t.Errorf("%d codes: %d self-moves dropped, %d fused words; the checks saw no sharing or fusion", codes, dropped, fused)
	}
	t.Logf("%d codes: %d self-moves dropped, %d fused words", codes, dropped, fused)
}

// moveCounts returns the self-moves and the other register moves in
// the reference code of method name of bp at tier 1. A self-move is the
// edge move of a phi that shares its operand's slot.
func moveCounts(t *testing.T, bp *bytecode.Program, name string) (self, other int) {
	t.Helper()
	mi := slices.IndexFunc(bp.Methods, func(m *bytecode.Method) bool { return m.Name == name })
	c := referenceCode(New(Options{MaxTier: 1}), vm.CompileRequest{Prog: bp, MethodIndex: mi, Tier: 1, OSRLoopID: -1})
	for _, in := range c.ins {
		switch {
		case in.op == mMov && in.d == in.a:
			self++
		case in.op == mMov:
			other++
		}
	}
	return self, other
}

// TestRedundantPhiSharing pins when a redundant phi shares its operand's
// slot. In straight, k and n cross the if/else join unchanged, and the
// values they stand for are defined once per activation, so both join
// phis share and all four of their edge moves are self-moves. In loop,
// i and k cross the join inside the loop unchanged, but the values
// their join phis stand for are the loop header's phis, which lie on a
// cycle and are written again every iteration: those join phis keep
// their slots, leaving a move on each join edge for each (four) besides
// the back edge's two. n's phis stand for the parameter and share.
//
// Sharing a header phi's slot would be wrong twice over: the collector
// could see an older handle vanish from a frame, and an edge move group
// that writes the header phi could overwrite it before another move of
// the group reads the join phi: in lostCopy the back edge sets b to
// the join phi of a and a to a+1 in one group, and in swap it swaps a
// and b through their join phis.
func TestRedundantPhiSharing(t *testing.T) {
	bp := compileSrc(t, `class T {
    int s;
    int loop(int n) {
        int k = 0;
        for (int i = 0; i < 9; i++) {
            if (i % 3 == 0) { s = s + 1; } else { s = s - 1; }
            k = k + i;
        }
        return k + n;
    }
    int straight(int n) {
        int k = n * 2;
        if (n % 3 == 0) { s = s + 1; } else { s = s - 1; }
        return k + n;
    }
    void main() { print(loop(9) + straight(4)); }
}`)
	for _, tc := range []struct {
		name        string
		self, other int
	}{
		{"straight", 4, 0},
		{"loop", 4, 6},
	} {
		if self, other := moveCounts(t, bp, tc.name); self != tc.self || other != tc.other {
			t.Errorf("%s: %d self-moves and %d other moves, want %d and %d", tc.name, self, other, tc.self, tc.other)
		}
	}

	out := runModes(t, `class T {
    int lostCopy(int n) {
        int a = 0; int b = 0; int c = 0;
        for (int i = 0; i < n; i++) {
            if (i > 5) { c = c + 1; } else { c = c - 1; }
            b = a;
            a = a + 1;
        }
        return b;
    }
    int swap(int n) {
        int a = 1; int b = 2;
        for (int i = 0; i < n; i++) {
            if (i % 2 == 0) { n = n + 0; } else { n = n - 0; }
            int t = a; a = b; b = t;
        }
        return a * 100 + b;
    }
    void main() { print(lostCopy(10)); print(swap(7)); }
}`)
	if want := []string{"9", "201"}; !slices.Equal(out.Lines, want) {
		t.Errorf("interpreter printed %v, want %v", out.Lines, want)
	}
}
