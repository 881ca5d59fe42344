package harness

import (
	"fmt"
	"strings"
	"testing"

	"artemis/internal/blame"
)

// blameKey serializes every deterministic blame field of a campaign —
// per-finding results plus the rendered behavior-derived table — for
// byte-exact comparison across worker counts.
func blameKey(s *CampaignStats) string {
	var b strings.Builder
	for i, f := range s.Distinct {
		if f.Blame == nil {
			fmt.Fprintf(&b, "d[%d] sig=%q blame=nil\n", i, f.Signature)
			continue
		}
		fmt.Fprintf(&b, "d[%d] sig=%q passes=%v pv=%s methods=%v sv=%s ir=%q fixed=%q dv=%s runs=%d\n",
			i, f.Signature, f.Blame.GuiltyPasses, f.Blame.PassVerdict,
			f.Blame.MinimalMethods, f.Blame.SpaceVerdict, f.Blame.IRInvariant,
			f.Blame.FixedBy, f.Blame.DefectVerdict, f.Blame.Runs)
	}
	b.WriteString(FormatBlameTable([]*CampaignStats{s}))
	return b.String()
}

// passForBug is the injected-tag ground truth the behavior-derived
// localization must reproduce: the tier-2 pipeline pass each seeded
// defect lives in, or "" for defects outside the disableable pass
// pipeline (SSA build, register allocation, codegen, compiled-code
// execution, GC interaction, tier-1 compilers).
var passForBug = map[string]string{
	"hs-gcm-store-sink":   "gcm",
	"hs-gvn-across-store": "gvn",
	"hs-gvn-table":        "gvn",
	"hs-gcp-fold-minint":  "fold",
	"hs-loopopt-nest":     "licm",
	"oj-lvp-across-call":  "valprop",
	"oj-gvp-join":         "valprop",
	"oj-vector-legality":  "licm",
	"oj-bce-offbyone":     "bce",
	"hs-c1-bigmethod":     "",
	"hs-igb-region":       "",
	"hs-ea-phi":           "",
	"hs-ra-highpressure":  "",
	"hs-cg-ushr-wide":     "",
	"hs-exec-guard-stack": "",
	"oj-ra-interval":      "",
	"oj-cg-switch-dense":  "",
	"oj-cg-l2i-skip":      "",
	"oj-jitint-guard":     "",
	"oj-recomp-limit":     "",
	"oj-deopt-stale":      "",
	"oj-gc-barrier":       "",
	"art-t1-ushr-int":     "",
	"art-t1-osr-switch":   "",
	"art-t1-bigframe":     "",
	"art-gc-clear":        "",
}

// TestCampaignBlameDeterministicAcrossWorkers: with Blame on, the
// per-finding localizations and the behavior-derived table must be
// byte-identical for any worker count (blame runs on the reducer in
// discovery order, from deterministic reproducer sources).
func TestCampaignBlameDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker blame sweep is slow")
	}
	prof := profile(t, "hotspotlike")
	run := func(workers int) *CampaignStats {
		return RunCampaign(CampaignOptions{
			Options: Options{Profile: prof, MaxIter: 4, Buggy: true},
			Seeds:   15,
			Workers: workers,
			Blame:   true,
		})
	}
	ref := run(1)
	localized := 0
	for _, f := range ref.Distinct {
		if f.Blame != nil {
			localized++
		}
	}
	if localized == 0 {
		t.Fatal("no finding was blamed; determinism comparison would be vacuous")
	}
	want := blameKey(ref)
	for _, workers := range []int{2, 4} {
		got := blameKey(run(workers))
		if got != want {
			t.Errorf("blame results diverge from workers=1 run:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
				want, workers, got)
		}
	}
}

// TestCampaignBlameAgreesWithInjectedTags: for every finding blame
// both attributes to a seeded defect (defect isolation over bug sets)
// and localizes to passes (pass bisection over the reproducer), the
// two must agree — the guilty pass set must be exactly the pass the
// injected defect lives in, and defects outside the pass pipeline must
// be called out as such. This is the end-to-end check that the
// behavior-derived Table 2 measures the same thing as the tag-derived
// one.
func TestCampaignBlameAgreesWithInjectedTags(t *testing.T) {
	if testing.Short() {
		t.Skip("blame campaign is slow")
	}
	checked := 0
	for _, name := range []string{"hotspotlike", "openj9like"} {
		prof := profile(t, name)
		stats := RunCampaign(CampaignOptions{
			Options: Options{Profile: prof, MaxIter: 5, Buggy: true},
			Seeds:   20,
			Blame:   true,
		})
		for _, f := range stats.Distinct {
			if f.Blame == nil || f.Blame.FixedBy == "" {
				continue
			}
			fixedBy := f.Blame.FixedBy
			wantPass, known := passForBug[fixedBy]
			if !known {
				t.Errorf("%s: bug %s missing from the ground-truth table", name, fixedBy)
				continue
			}
			switch f.Blame.PassVerdict {
			case blame.VerdictLocalized:
				checked++
				if wantPass == "" {
					t.Errorf("%s: %s (fixed-by=%s) localized to %v, but the defect lives outside the pass pipeline",
						name, f.Signature, fixedBy, f.Blame.GuiltyPasses)
				} else if len(f.Blame.GuiltyPasses) != 1 || f.Blame.GuiltyPasses[0] != wantPass {
					t.Errorf("%s: %s (fixed-by=%s) blamed %v, want [%s]",
						name, f.Signature, fixedBy, f.Blame.GuiltyPasses, wantPass)
				}
			case blame.VerdictOutsidePipeline:
				checked++
				if wantPass != "" {
					t.Errorf("%s: %s (fixed-by=%s) reported outside the pass pipeline, but the defect lives in %s",
						name, f.Signature, fixedBy, wantPass)
				}
			default:
				// not-reproduced / budget-exhausted carry no pass claim
				// to cross-check; log them so a systematic reproduction
				// failure is visible in -v output.
				t.Logf("%s: %s (fixed-by=%s) verdict %s — no tag cross-check",
					name, f.Signature, fixedBy, f.Blame.PassVerdict)
			}
		}
	}
	if checked == 0 {
		t.Error("no finding was both attributed and localized; agreement check is vacuous")
	}
}

// TestCampaignBlameIsolatesEscapeAnalysisDefect: seed 0 of a
// hotspotlike campaign at a 16M-step budget crashes in Escape
// Analysis. Removing hs-ea-phi alone makes that signature go away —
// the mutant then crashes in hs-exec-guard-stack's trap stub instead —
// so defect isolation, which pins the symptom to the signature rather
// than to "any crash", must name hs-ea-phi.
func TestCampaignBlameIsolatesEscapeAnalysisDefect(t *testing.T) {
	stats := RunCampaign(CampaignOptions{
		Options: Options{Profile: profile(t, "hotspotlike"), Buggy: true, StepLimit: 16_000_000},
		Seeds:   1,
		Workers: 1,
		Blame:   true,
	})
	found := false
	for _, f := range stats.Distinct {
		if f.Component != "Escape Analysis, C2" {
			continue
		}
		found = true
		if f.Blame == nil || f.Blame.FixedBy != "hs-ea-phi" || f.Blame.DefectVerdict != blame.VerdictLocalized {
			t.Errorf("%s: blame %+v, want fixed by hs-ea-phi", f.Signature, f.Blame)
		}
	}
	if !found {
		t.Fatal("seed 0 no longer crashes in Escape Analysis; the check is vacuous")
	}
}
