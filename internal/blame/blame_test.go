package blame

import (
	"reflect"
	"testing"

	"artemis/internal/bugs"
	"artemis/internal/bytecode"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
	"artemis/internal/lang/sem"
	"artemis/internal/profiles"
	"artemis/internal/vm"
)

func parse(t testing.TB, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

// divergesFrom builds the miscompile symptom the harness uses: the
// probe output differs from an interpreted reference.
func divergesFrom(t testing.TB, prog *ast.Program) Symptom {
	t.Helper()
	bp := bytecode.MustCompile(sem.MustAnalyze(prog))
	ref := vm.Run(vm.Config{}, bp).Output
	if ref.Term != vm.TermNormal {
		t.Fatalf("reference run did not finish normally: %v %q", ref.Term, ref.Detail)
	}
	return func(out *vm.Output) bool { return !out.Equivalent(ref) }
}

func mustGet(t testing.TB, name string) *profiles.Profile {
	t.Helper()
	p, err := profiles.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// gcmSrc is the flagship JDK-8288975 shape (outer loop + counting
// inner loop + field increment). The harness's findings come from
// invocation-hot mutants, so g is pre-invoked past the tier-2 entry
// threshold; the final calls run the buggy tier-2 code and the printed
// value changes (20 -> 80: the increment multiplies by the inner trip
// count).
const gcmSrc = `class T {
	int l = 0;
	void g() {
		for (int i = 0; i < 10; i++) {
			for (int w = 0; w < 13; w += 4) { }
			l += 2;
		}
	}
	void main() {
		for (int r = 0; r < 2000; r++) { l = 0; g(); }
		print(l);
	}
}`

// TestBlameGCMStoreSink: with every hotspotlike defect on, the flagship
// reproducer localizes to gcm, to method g, and to the one defect whose
// removal fixes it.
func TestBlameGCMStoreSink(t *testing.T) {
	prof := mustGet(t, "hotspotlike")
	prog := parse(t, gcmSrc)
	res := Localize(prog, divergesFrom(t, prog), Config{Profile: prof, Bugs: prof.BugSet()})
	if res.PassVerdict != VerdictLocalized {
		t.Fatalf("pass verdict %q, want localized (runs %d)", res.PassVerdict, res.Runs)
	}
	if !reflect.DeepEqual(res.GuiltyPasses, []string{"gcm"}) {
		t.Errorf("guilty passes %v, want [gcm]", res.GuiltyPasses)
	}
	if res.SpaceVerdict != VerdictMinimal {
		t.Fatalf("space verdict %q, want minimal", res.SpaceVerdict)
	}
	if !reflect.DeepEqual(res.MinimalMethods, []string{"g"}) {
		t.Errorf("minimal methods %v, want [g]", res.MinimalMethods)
	}
	if res.IRInvariant != "" {
		t.Errorf("store sink preserves IR invariants, got %q", res.IRInvariant)
	}
	if res.DefectVerdict != VerdictLocalized || res.FixedBy != "hs-gcm-store-sink" || !res.Reproduced() {
		t.Errorf("defect verdict %q fixed by %q, want localized hs-gcm-store-sink", res.DefectVerdict, res.FixedBy)
	}
}

// BenchmarkBlameGCMStoreSink measures one complete localization of the
// flagship reproducer with only its own defect on: the cost a campaign
// pays per first-seen finding when blame is on.
func BenchmarkBlameGCMStoreSink(b *testing.B) {
	prof := mustGet(b, "hotspotlike")
	prog := parse(b, gcmSrc)
	symptom := divergesFrom(b, prog)
	cfg := Config{Profile: prof, Bugs: bugs.NewSet("hs-gcm-store-sink")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := Localize(prog, symptom, cfg); res.PassVerdict != VerdictLocalized {
			b.Fatalf("localization regressed: %s", res.PassVerdict)
		}
	}
}

func TestBlameGVNAcrossStore(t *testing.T) {
	// Load f, store f in a branch, load f again at the merge: local
	// value propagation cannot forward across blocks, so the second
	// load survives to GVN, which (buggily) numbers it equal to the
	// first load despite the intervening store.
	src := `class T {
		int f = 0;
		int step(int b) {
			int a = f;
			if (b == 1) { f = a + 1; }
			return f;
		}
		void main() {
			int s = 0;
			for (int i = 0; i < 3000; i++) { s += step(1); }
			print(s);
			print(f);
		}
	}`
	prog := parse(t, src)
	res := Localize(prog, divergesFrom(t, prog), Config{
		Profile: mustGet(t, "hotspotlike"),
		Bugs:    bugs.NewSet("hs-gvn-across-store"),
	})
	if res.PassVerdict != VerdictLocalized {
		t.Fatalf("pass verdict %q, want localized", res.PassVerdict)
	}
	if !reflect.DeepEqual(res.GuiltyPasses, []string{"gvn"}) {
		t.Errorf("guilty passes %v, want [gvn]", res.GuiltyPasses)
	}
	if res.SpaceVerdict != VerdictMinimal {
		t.Fatalf("space verdict %q, want minimal", res.SpaceVerdict)
	}
}

func TestBlameCodegenOutsidePipeline(t *testing.T) {
	// hs-cg-ushr-wide lives in codegen, not in any disableable pass:
	// long >>> with a non-constant count gets a 32-bit shift mask.
	src := `class T {
		void main() {
			long s = 0L;
			long x = 123456789123L;
			for (int i = 0; i < 3000; i++) {
				s += x >>> (i & 63);
			}
			print(s);
		}
	}`
	prog := parse(t, src)
	res := Localize(prog, divergesFrom(t, prog), Config{
		Profile: mustGet(t, "hotspotlike"),
		Bugs:    bugs.NewSet("hs-cg-ushr-wide"),
	})
	if res.PassVerdict != VerdictOutsidePipeline {
		t.Fatalf("pass verdict %q, want outside-pass-pipeline (guilty %v)", res.PassVerdict, res.GuiltyPasses)
	}
	if res.SpaceVerdict != VerdictMinimal {
		t.Fatalf("space verdict %q, want minimal", res.SpaceVerdict)
	}
}

func TestBlameNoOptimizingTier(t *testing.T) {
	// artlike has MaxTier 1: no optimizing pipeline exists to bisect,
	// but the space shrink still works against the tier-1 JIT, and so
	// does defect isolation: the default-policy probe runs for every
	// profile, and f is called past the tier-1 entry threshold, so the
	// ushr defect shows under the default policy.
	src := `class T {
		int f(int x, int c) { return x >>> c; }
		void main() {
			int s = 0;
			for (int i = 0; i < 3000; i++) { s += f(0 - 8, i & 3); }
			print(s);
		}
	}`
	prof := mustGet(t, "artlike")
	prog := parse(t, src)
	res := Localize(prog, divergesFrom(t, prog), Config{Profile: prof, Bugs: prof.BugSet()})
	if res.PassVerdict != VerdictNoOptTier {
		t.Fatalf("pass verdict %q, want no-optimizing-tier", res.PassVerdict)
	}
	if res.SpaceVerdict != VerdictMinimal {
		t.Fatalf("space verdict %q, want minimal", res.SpaceVerdict)
	}
	if !reflect.DeepEqual(res.MinimalMethods, []string{"f"}) {
		t.Errorf("minimal methods %v, want [f]", res.MinimalMethods)
	}
	if res.DefectVerdict != VerdictLocalized || res.FixedBy != "art-t1-ushr-int" {
		t.Errorf("defect verdict %q fixed by %q, want localized art-t1-ushr-int", res.DefectVerdict, res.FixedBy)
	}
}

func TestBlameNotReproduced(t *testing.T) {
	// Correct VM: the symptom never fires, so there is nothing to
	// bisect and the forced point does not trigger either.
	prog := parse(t, gcmSrc)
	res := Localize(prog, divergesFrom(t, prog), Config{
		Profile: mustGet(t, "hotspotlike"),
		Bugs:    nil,
	})
	if res.PassVerdict != VerdictNotReproduced {
		t.Fatalf("pass verdict %q, want not-reproduced", res.PassVerdict)
	}
	if res.SpaceVerdict != VerdictNotInForcedSpace {
		t.Fatalf("space verdict %q, want not-in-forced-space", res.SpaceVerdict)
	}
	if res.DefectVerdict != VerdictNotReproduced || res.FixedBy != "" || res.Reproduced() {
		t.Fatalf("defect verdict %q fixed by %q, want not-reproduced", res.DefectVerdict, res.FixedBy)
	}
}

func TestBlameBudgetExhausted(t *testing.T) {
	prog := parse(t, gcmSrc)
	res := Localize(prog, divergesFrom(t, prog), Config{
		Profile: mustGet(t, "hotspotlike"),
		Bugs:    bugs.NewSet("hs-gcm-store-sink"),
		Budget:  1,
	})
	if res.PassVerdict != VerdictBudget || res.SpaceVerdict != VerdictBudget || res.DefectVerdict != VerdictBudget {
		t.Fatalf("verdicts %q/%q/%q, want budget-exhausted for all three", res.PassVerdict, res.SpaceVerdict, res.DefectVerdict)
	}
	if res.Runs != 1 {
		t.Errorf("runs %d, want exactly the budget (1)", res.Runs)
	}
}

// TestBlameDeterministic pins that localization is a pure function of
// its inputs: repeated runs agree byte-for-byte, which is what makes
// campaign blame output worker-count-independent.
func TestBlameDeterministic(t *testing.T) {
	prog := parse(t, gcmSrc)
	cfg := Config{Profile: mustGet(t, "hotspotlike"), Bugs: bugs.NewSet("hs-gcm-store-sink")}
	a := Localize(prog, divergesFrom(t, prog), cfg)
	b := Localize(prog, divergesFrom(t, prog), cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("localization not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}
