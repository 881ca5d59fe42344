package harness

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// statsKey serializes every deterministic field of CampaignStats
// (everything except wall-clock Elapsed) for byte-exact comparison
// across worker counts.
func statsKey(s *CampaignStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile=%s seeds=%d mutants=%d runs=%d\n", s.Profile, s.Seeds, s.Mutants, s.Runs)
	fmt.Fprintf(&b, "dup=%d discarded=%d cse=%d trad=%d both=%d\n",
		s.Duplicates, s.DiscardedSeeds, s.CSESeeds, s.TradSeeds, s.BothSeeds)
	for i, f := range s.Distinct {
		fmt.Fprintf(&b, "distinct[%d] sig=%q detail=%q seed=%d mutant=%d count=%d\n",
			i, f.Signature, f.Detail, f.SeedID, f.MutantID, f.Count)
	}
	for i, ex := range s.Examples {
		fmt.Fprintf(&b, "example[%d] %d bytes: %s\n", i, len(ex), ex)
	}
	return b.String()
}

// TestCampaignParallelDeterminism: the deterministic-merge invariant.
// The same campaign run with 1, 2, 4, and 8 workers must produce
// identical CampaignStats — Distinct signatures in discovery order,
// duplicate counts, Table 4 columns, and Examples selection.
func TestCampaignParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker determinism sweep is slow")
	}
	prof := profile(t, "openj9like")
	run := func(workers int) *CampaignStats {
		return RunCampaign(CampaignOptions{
			Options:     Options{Profile: prof, MaxIter: 4, Buggy: true},
			Seeds:       14,
			SeedBase:    7,
			Comparative: true,
			Workers:     workers,
		})
	}
	ref := run(1)
	if len(ref.Distinct) == 0 {
		t.Fatal("reference campaign found nothing; determinism comparison would be vacuous")
	}
	want := statsKey(ref)
	for _, workers := range []int{2, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := statsKey(run(workers))
			if got != want {
				t.Errorf("stats diverge from workers=1 run:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
					want, workers, got)
			}
		})
	}
}

// TestCampaignPanicIsolation: a seed whose worker panics must not take
// the campaign down. The panic becomes an internal-error finding and
// every other seed's findings are unaffected.
func TestCampaignPanicIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("panic-isolation sweep is slow")
	}
	prof := profile(t, "openj9like")
	const panicIdx = 5
	const seeds = 12
	base := func(workers, n int, hook func(idx int, seedID int64, stop *atomic.Bool)) *CampaignStats {
		return RunCampaign(CampaignOptions{
			Options:  Options{Profile: prof, MaxIter: 4, Buggy: true},
			Seeds:    n,
			Workers:  workers,
			seedHook: hook,
		})
	}
	// References shared by both worker counts: a campaign over just
	// the seeds preceding the panic, and a clean full-length one.
	prefix := base(1, panicIdx, nil)
	clean := base(1, seeds, nil)
	cleanSigs := map[string]bool{}
	for _, f := range clean.Distinct {
		cleanSigs[f.Signature] = true
	}
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			injected := base(workers, seeds, func(idx int, seedID int64, _ *atomic.Bool) {
				if idx == panicIdx {
					panic("injected test panic")
				}
			})
			if injected.Seeds != seeds {
				t.Fatalf("campaign did not complete: %d/%d seeds", injected.Seeds, seeds)
			}
			// The panic is recorded as a harness-internal crash finding.
			var panicFinding *DedupFinding
			for i := range injected.Distinct {
				if injected.Distinct[i].Component == "Harness Internal Error" {
					panicFinding = &injected.Distinct[i]
				}
			}
			if panicFinding == nil {
				t.Fatal("panic was not recorded as a finding")
			}
			if panicFinding.SeedID != int64(panicIdx) {
				t.Errorf("panic finding attributed to seed %d, want %d", panicFinding.SeedID, panicIdx)
			}
			if !strings.Contains(panicFinding.Detail, "injected test panic") {
				t.Errorf("panic detail lost: %q", panicFinding.Detail)
			}

			// Seeds merged before the panicking one are untouched: their
			// Distinct prefix matches a campaign over just those seeds.
			if len(injected.Distinct) < len(prefix.Distinct) {
				t.Fatalf("injected campaign lost findings: %d < %d", len(injected.Distinct), len(prefix.Distinct))
			}
			for i, f := range prefix.Distinct {
				if injected.Distinct[i].Signature != f.Signature {
					t.Errorf("distinct[%d] diverges before the panic: %q vs %q",
						i, injected.Distinct[i].Signature, f.Signature)
				}
			}

			// Seeds after the panicking one still contribute: apart from
			// the injected finding, every signature also appears in a
			// clean full-length campaign.
			for _, f := range injected.Distinct {
				if f.Component == "Harness Internal Error" {
					continue
				}
				if !cleanSigs[f.Signature] {
					t.Errorf("injected campaign invented finding %q", f.Signature)
				}
			}
		})
	}
}

// TestCampaignSeedTimeout: a seed exceeding SeedTimeout is discarded
// (DiscardedSeeds) while the rest of the campaign proceeds.
func TestCampaignSeedTimeout(t *testing.T) {
	prof := profile(t, "openj9like")
	// Two calibrations keep this stable on slow or loaded boxes (the
	// race detector alone is a ~10x slowdown): the wall-clock budget
	// is derived from the measured per-seed cost of a baseline
	// campaign (10x margin for healthy seeds), and the stuck seed
	// stalls until the harness stops it, as a VM run polling its stop
	// flag does, or for several budgets past it. Some seeds are also
	// discarded intrinsically (deterministic StepLimit), so assert the
	// wall-clock discard as a delta over the baseline.
	const slowIdx = 2
	opts := CampaignOptions{
		Options: Options{Profile: prof, MaxIter: 2, Buggy: true},
		Seeds:   4,
		Workers: 2,
	}
	baseline := RunCampaign(opts)
	budget := 10 * (baseline.Elapsed / time.Duration(opts.Seeds))
	if budget < 2*time.Second {
		budget = 2 * time.Second
	}
	opts.SeedTimeout = budget
	opts.seedHook = func(idx int, seedID int64, stop *atomic.Bool) {
		if idx != slowIdx {
			return
		}
		for deadline := time.Now().Add(5 * budget); !stop.Load() && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	stats := RunCampaign(opts)
	if stats.DiscardedSeeds != baseline.DiscardedSeeds+1 {
		t.Errorf("DiscardedSeeds = %d, want %d (baseline %d + the slow seed)",
			stats.DiscardedSeeds, baseline.DiscardedSeeds+1, baseline.DiscardedSeeds)
	}
	if stats.Seeds != 4 {
		t.Errorf("campaign did not complete: %d/4 seeds", stats.Seeds)
	}
	// The other seeds still ran: they account for runs and mutants.
	if stats.Runs == 0 || stats.Mutants == 0 {
		t.Errorf("non-slow seeds produced no work: runs=%d mutants=%d", stats.Runs, stats.Mutants)
	}
}

// TestExamplePairingRegression: Examples must pair each finding with
// its own mutant source. A finding without a source (a seed whose
// default run crashed) must not steal the next finding's source, and
// a malformed Result (lengths out of sync) must yield no example at
// all rather than a mispaired one.
func TestExamplePairingRegression(t *testing.T) {
	prof := profile(t, "openj9like")
	opts := CampaignOptions{Options: Options{Profile: prof}, Seeds: 2}

	mkFinding := func(sig string) Finding {
		return Finding{Kind: CrashFinding, Profile: prof.Name, Signature: sig, Detail: sig}
	}

	t.Run("sourceless finding does not shift pairing", func(t *testing.T) {
		m := newMerger(opts, time.Now())
		// Seed 0: default-run crash — finding with no mutant source.
		m.add(seedOutcome{idx: 0, res: &Result{
			Findings:      []Finding{mkFinding("crash|seed-itself")},
			MutantSources: []string{""},
		}})
		// Seed 1: mutant-triggered finding with its source.
		m.add(seedOutcome{idx: 1, res: &Result{
			Findings:      []Finding{mkFinding("crash|mutant")},
			MutantSources: []string{"class Good { void main() {} }"},
		}})
		if len(m.stats.Distinct) != 2 {
			t.Fatalf("got %d distinct findings, want 2", len(m.stats.Distinct))
		}
		if len(m.stats.Examples) != 1 || m.stats.Examples[0] != "class Good { void main() {} }" {
			t.Errorf("examples mispaired: %q", m.stats.Examples)
		}
	})

	t.Run("malformed result collects no examples", func(t *testing.T) {
		m := newMerger(opts, time.Now())
		// Two findings but only one recorded source: alignment unknown,
		// so no source may be paired with either finding.
		m.add(seedOutcome{idx: 0, res: &Result{
			Findings:      []Finding{mkFinding("a"), mkFinding("b")},
			MutantSources: []string{"class Ambiguous {}"},
		}})
		if len(m.stats.Examples) != 0 {
			t.Errorf("mispaired example from malformed result: %q", m.stats.Examples)
		}
	})
}

// TestValidateSourceInvariant: Validate must uphold the 1:1
// Findings/MutantSources invariant the merger relies on, across many
// seeds (including seeds whose default run crashes).
func TestValidateSourceInvariant(t *testing.T) {
	prof := profile(t, "hotspotlike")
	checked := 0
	for i := 0; i < 15; i++ {
		out := runSeed(CampaignOptions{
			Options:  Options{Profile: prof, MaxIter: 3, Buggy: true},
			SeedBase: 100,
		}, i, nil, nil)
		if out.res.SeedDiscarded {
			continue
		}
		checked++
		if len(out.res.Findings) != len(out.res.MutantSources) {
			t.Fatalf("seed %d: %d findings but %d sources",
				i, len(out.res.Findings), len(out.res.MutantSources))
		}
	}
	if checked == 0 {
		t.Skip("every seed discarded; invariant unexercised")
	}
}

// TestCampaignParallelRaceStress is a small parallel campaign plus a
// parallel space enumeration meant to run under `go test -race`: it
// exists to give the race detector real concurrent load (oversubscribed
// workers, comparative oracle, trace recording).
func TestCampaignParallelRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	prof := profile(t, "hotspotlike")
	stats := RunCampaign(CampaignOptions{
		Options:     Options{Profile: prof, MaxIter: 3, Buggy: true},
		Seeds:       16,
		Workers:     8, // oversubscribed on purpose
		Comparative: true,
		Progress:    func(Progress) {},
	})
	if stats.Seeds != 16 {
		t.Fatalf("campaign incomplete: %d/16 seeds", stats.Seeds)
	}

	// Parallel space enumeration shares one compiled program across
	// workers; outputs must agree with the sequential enumeration.
	src := mustParse(t, `class T {
        int baz() { return 1; }
        int bar() { return 2; }
        int foo() { return bar() + baz(); }
        void main() { print(foo()); }
    }`)
	methods := []string{"main", "foo", "bar", "baz"}
	seq := EnumerateSpace(prof, src, methods, false, 1)
	par := EnumerateSpace(prof, src, methods, false, 8)
	if len(seq) != len(par) {
		t.Fatalf("choice counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Output.Key() != par[i].Output.Key() {
			t.Errorf("choice %d diverges: %q vs %q", i, seq[i].Output.Key(), par[i].Output.Key())
		}
		if seq[i].Trace.Key() != par[i].Trace.Key() {
			t.Errorf("choice %d trace diverges", i)
		}
	}
}

// TestProgressHook: the hook fires once per seed, in seed order, with
// monotonically increasing counters and a sane final snapshot.
func TestProgressHook(t *testing.T) {
	prof := profile(t, "openj9like")
	var snaps []Progress
	stats := RunCampaign(CampaignOptions{
		Options:  Options{Profile: prof, MaxIter: 2, Buggy: true},
		Seeds:    6,
		Workers:  3,
		Progress: func(p Progress) { snaps = append(snaps, p) },
	})
	if len(snaps) != 6 {
		t.Fatalf("progress fired %d times, want 6", len(snaps))
	}
	for i, p := range snaps {
		if p.SeedsDone != i+1 {
			t.Errorf("snapshot %d: SeedsDone=%d, want %d", i, p.SeedsDone, i+1)
		}
		if p.Seeds != 6 {
			t.Errorf("snapshot %d: Seeds=%d, want 6", i, p.Seeds)
		}
		if i > 0 && p.Runs < snaps[i-1].Runs {
			t.Errorf("snapshot %d: Runs decreased %d -> %d", i, snaps[i-1].Runs, p.Runs)
		}
	}
	final := snaps[len(snaps)-1]
	if final.Runs != stats.Runs {
		t.Errorf("final snapshot Runs=%d, stats.Runs=%d", final.Runs, stats.Runs)
	}
	if final.ETA() != 0 {
		t.Errorf("final ETA = %v, want 0", final.ETA())
	}
}

// TestProgressETAClamped: ETA must never go negative — SeedsDone can
// exceed Seeds when a resumed campaign replays a journal recorded
// past the currently requested seed count.
func TestProgressETAClamped(t *testing.T) {
	cases := []struct {
		name string
		p    Progress
	}{
		{"overshoot", Progress{SeedsDone: 7, Seeds: 5, Elapsed: 10 * time.Second}},
		{"exactly done", Progress{SeedsDone: 5, Seeds: 5, Elapsed: 10 * time.Second}},
		{"nothing done", Progress{SeedsDone: 0, Seeds: 5, Elapsed: 10 * time.Second}},
		{"zero seeds", Progress{SeedsDone: 0, Seeds: 0}},
	}
	for _, tc := range cases {
		if eta := tc.p.ETA(); eta < 0 {
			t.Errorf("%s: ETA = %v, want >= 0", tc.name, eta)
		} else if tc.p.SeedsDone >= tc.p.Seeds && eta != 0 {
			t.Errorf("%s: ETA = %v, want 0 once done", tc.name, eta)
		}
	}
	// Sanity: a half-done campaign still projects forward.
	half := Progress{SeedsDone: 5, Seeds: 10, Elapsed: 10 * time.Second}
	if eta := half.ETA(); eta != 10*time.Second {
		t.Errorf("half-done ETA = %v, want 10s", eta)
	}
}
