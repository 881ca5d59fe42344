package harness

import (
	"strings"
	"testing"

	"artemis/internal/blame"
	"artemis/internal/lang/parser"
	"artemis/internal/profiles"
	"artemis/internal/vm"
)

func profile(t *testing.T, name string) *profiles.Profile {
	t.Helper()
	p, err := profiles.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNoFalsePositives: on a correct VM, a campaign must report
// nothing — JoNM neutrality plus VM correctness imply zero
// discrepancies. This is the validator validating itself.
func TestNoFalsePositives(t *testing.T) {
	for _, name := range []string{"hotspotlike", "artlike"} {
		prof := profile(t, name)
		stats := RunCampaign(CampaignOptions{
			Options: Options{Profile: prof, MaxIter: 3, Buggy: false},
			Seeds:   10,
		})
		if len(stats.Distinct) != 0 {
			t.Errorf("%s: correct VM produced %d findings: %+v", name, len(stats.Distinct), stats.Distinct[0].Finding)
			for _, ex := range stats.Examples {
				t.Logf("example mutant:\n%s", ex)
			}
		}
	}
}

// TestCampaignFindsSeededBugs: each buggy profile must yield findings,
// all attributable to JIT compilation.
func TestCampaignFindsSeededBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	for _, name := range []string{"hotspotlike", "openj9like", "artlike"} {
		name := name
		t.Run(name, func(t *testing.T) {
			prof := profile(t, name)
			stats := RunCampaign(CampaignOptions{
				Options: Options{Profile: prof, MaxIter: 5, Buggy: true},
				Seeds:   25,
			})
			if len(stats.Distinct) == 0 {
				t.Fatalf("%s: campaign over %d seeds found nothing", name, stats.Seeds)
			}
			t.Logf("%s: %d distinct findings, %d duplicates, %d CSE seeds",
				name, len(stats.Distinct), stats.Duplicates, stats.CSESeeds)
			for _, f := range stats.Distinct {
				t.Logf("  [%s] %s %s", f.Kind, f.Component, f.Detail)
			}
		})
	}
}

// TestInterpreterNeverAffected: every seeded defect must vanish when
// the JIT is off — the paper's "all reported bugs concern JIT
// compilers" property.
func TestInterpreterNeverAffected(t *testing.T) {
	prof := profile(t, "openj9like")
	stats := RunCampaign(CampaignOptions{
		Options: Options{Profile: prof, MaxIter: 4, Buggy: true},
		Seeds:   15,
	})
	if len(stats.Examples) == 0 {
		t.Skip("no finding examples collected in this window")
	}
	for i, src := range stats.Examples {
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("example %d does not parse: %v", i, err)
		}
		bp := Compile(p)
		cfg := prof.InterpreterConfig()
		cfg.StepLimit = 400_000_000
		out := vm.Run(cfg, bp).Output
		if out.Term == vm.TermCrash {
			t.Errorf("example %d crashes even under pure interpretation", i)
		}
	}
}

// TestBlameConfirmsAndFixes: with Blame, findings must reproduce from
// their reported reproducer and be attributable to a single seeded
// defect of the campaign's profile (Table 1's confirmed and fixed rows).
func TestBlameConfirmsAndFixes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	prof := profile(t, "hotspotlike")
	stats := RunCampaign(CampaignOptions{
		Options: Options{Profile: prof, MaxIter: 5, Buggy: true},
		Seeds:   20,
		Blame:   true,
	})
	if len(stats.Distinct) == 0 {
		t.Skip("no findings in this window")
	}
	if stats.Confirmed() == 0 {
		t.Error("no finding reproduced from its reproducer")
	}
	if stats.Fixed() == 0 {
		t.Error("no finding could be attributed to a seeded defect")
	}
	if stats.Fixed() > stats.Confirmed() {
		t.Errorf("%d findings fixed but only %d confirmed", stats.Fixed(), stats.Confirmed())
	}
	for _, f := range stats.Distinct {
		if f.Blame == nil {
			continue
		}
		if f.Blame.FixedBy != "" && !prof.BugSet().Has(f.Blame.FixedBy) {
			t.Errorf("%s: fixed by %s, which is not a %s defect", f.Signature, f.Blame.FixedBy, prof.Name)
		}
		t.Logf("[%s] %s fixed-by=%s defect=%s", f.Kind, f.Component, f.Blame.FixedBy, f.Blame.DefectVerdict)
	}
}

// TestEnumerateSpaceFigure1 reproduces Figure 1: the paper's 4-call
// program has 16 compilation choices, every one of which must return
// the same output (3) on a correct VM, while yielding 16 distinct
// JIT traces.
func TestEnumerateSpaceFigure1(t *testing.T) {
	src := `class T {
        int baz() { return 1; }
        int bar() { return 2; }
        int foo() { return bar() + baz(); }
        void main() { print(foo()); }
    }`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prof := profile(t, "hotspotlike")
	methods := []string{"main", "foo", "bar", "baz"}
	choices := EnumerateSpace(prof, prog, methods, false, 0)
	if len(choices) != 16 {
		t.Fatalf("expected 16 choices, got %d", len(choices))
	}
	traces := map[string]bool{}
	for _, c := range choices {
		if c.Output.Term != vm.TermNormal || c.Output.Lines[0] != "3" {
			t.Errorf("choice %s: output %v %v, want 3", c.Label(methods), c.Output.Term, c.Output.Lines)
		}
		traces[c.Trace.Key()] = true
	}
	if len(traces) < 8 {
		t.Errorf("only %d distinct JIT traces across 16 choices", len(traces))
	}
}

func TestTableFormatting(t *testing.T) {
	prof := profile(t, "hotspotlike")
	stats := &CampaignStats{Profile: prof.Name, Seeds: 10, Mutants: 80, Runs: 90,
		CSESeeds: 3, TradSeeds: 1, BothSeeds: 1}
	stats.Distinct = []DedupFinding{
		{Finding: Finding{Kind: CrashFinding, Component: "Global Value Numbering, C2"}, Count: 2,
			Blame: &blame.Result{FixedBy: "hs-gvn-table", DefectVerdict: blame.VerdictLocalized}},
		{Finding: Finding{Kind: Miscompilation, Detail: "normal-vs-normal"}, Count: 1,
			Blame: &blame.Result{DefectVerdict: blame.VerdictNotReproduced}},
		{Finding: Finding{Kind: Miscompilation, Detail: "normal-vs-exception"}, Count: 1},
	}
	t1 := FormatTable1([]*CampaignStats{stats})
	for _, row := range []string{"Reported (distinct) 3 3", "Confirmed (reproduced) 1 1", "Fixed (defect isolated) 1 1"} {
		if !strings.Contains(strings.Join(strings.Fields(t1), " "), row) {
			t.Errorf("table 1 lacks row %q:\n%s", row, t1)
		}
	}
	t2 := FormatTable2([]*CampaignStats{stats})
	if !strings.Contains(t2, "Global Value Numbering") {
		t.Errorf("table 2 malformed:\n%s", t2)
	}
	t4 := FormatTable4(stats)
	if !strings.Contains(t4, "CSE") {
		t.Errorf("table 4 malformed:\n%s", t4)
	}
}

func TestTraditionalOracle(t *testing.T) {
	// A seed whose bug only shows under full compilation is caught by
	// the traditional oracle too; most seeded defects need JoNM heat.
	prof := profile(t, "hotspotlike")
	seedProg, err := parser.Parse(`class T {
        int f(int x) { return x * 2; }
        void main() { print(f(21)); }
    }`)
	if err != nil {
		t.Fatal(err)
	}
	bp := Compile(seedProg)
	hit, runs := TraditionalDiscrepancy(bp, Options{Profile: prof, Buggy: false})
	if hit {
		t.Error("correct VM flagged by traditional oracle")
	}
	if runs != 2 {
		t.Errorf("expected 2 runs, got %d", runs)
	}
}
