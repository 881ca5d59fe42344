package jit

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"artemis/internal/bugs"
	"artemis/internal/bytecode"
	"artemis/internal/fuzz"
	"artemis/internal/lang/sem"
	"artemis/internal/vm"
)

// frameRootsDigest is the sha256 of every run line TestFrameRootsGolden
// writes. It was recorded before compiled code shared any frame slot.
const frameRootsDigest = "a11e43b8cf6d4263da92c4da82529b3b9cb0cb3c4ed143facf04d1efac36b1f1"

// TestFrameRootsGolden pins what the conservative collector sees in
// compiled frames. The collector scans every frame slot, so a codegen
// change that leaves a different value in some slot at a collection
// can keep a different set of arrays alive: the heap high-water mark,
// the collection count and, on a small heap, out-of-memory traps move.
// It hashes one line per run (termination, detail, steps, output hash,
// GC runs and peak heap words) over the step golden's fuzzer seeds and
// defect sets at forced tier 1, forced tier 2 and tiered execution, on
// a heap small enough, and collected often enough, that most
// allocating runs collect while compiled frames are live.
func TestFrameRootsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("frame-roots golden is not short")
	}
	h := sha256.New()
	line := func(res *vm.Result) {
		out := res.Output
		fmt.Fprintf(h, "%s|%s|%d|%016x|%d|%d\n", out.Term, out.Detail, res.Steps, out.Hash(),
			res.GCRuns, res.Stats.PeakHeapWords)
	}
	sets := []bugs.Set{nil}
	for _, jvm := range []string{"hotspot", "openj9", "art"} {
		sets = append(sets, bugs.SetForJVM(jvm))
	}
	for seed := int64(0); seed < stepGoldenSeeds; seed++ {
		bp := bytecode.MustCompile(sem.MustAnalyze(fuzz.Generate(fuzz.Options{Seed: seed})))
		for _, set := range sets {
			cfg := vm.Config{
				JIT:          New(Options{MaxTier: 2, Bugs: set}),
				StepLimit:    400_000,
				HeapWords:    4096,
				GCInterval:   8,
				CollectStats: true,
			}
			for _, tier := range []int{1, 2} {
				forced := cfg
				forced.Policy = &vm.ForcedPolicy{Tier: tier, Compile: forceAll}
				line(vm.Run(forced, bp))
			}
			tiered := cfg
			tiered.EntryThresholds = []int64{30, 120}
			tiered.OSRThresholds = []int64{40, 160}
			line(vm.Run(tiered, bp))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != frameRootsDigest {
		t.Errorf("frame-roots digest = %s, want %s", got, frameRootsDigest)
	}
}
