package harness

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"artemis/internal/fuzz"
	"artemis/internal/vm"
)

// TestStoppedRunsAreNeverFindings: with its stop flag set, a seed's
// chain reports only findings that the same chain reports without the
// flag — runs cut short by the flag never classify as a finding, be it
// a stopped seed run, a stopped mutant run, or a stopped comparative
// baseline — and the keep predicates reject every stopped run.
func TestStoppedRunsAreNeverFindings(t *testing.T) {
	prof := profile(t, "openj9like")
	var stop atomic.Bool
	stop.Store(true)
	cut, discarded := 0, 0
	for seed := int64(0); seed < 12; seed++ {
		o := Options{Profile: prof, MaxIter: 4, Buggy: true, StepLimit: 2_000_000}
		prog := fuzz.Generate(fuzz.Options{Seed: seed})
		plain := Validate(prog, seed, o)
		want := map[Finding]bool{}
		for _, f := range plain.Findings {
			want[f] = true
		}
		o.stop = &stop
		got := Validate(prog, seed, o)
		for _, f := range got.Findings {
			if !want[f] {
				t.Errorf("seed %d: stopped chain reports %q (mutant %d), which the full chain does not", seed, f.Signature, f.MutantID)
			}
		}
		if len(got.Findings) < len(plain.Findings) {
			cut++
		}
		if got.SeedDiscarded && !plain.SeedDiscarded {
			discarded++
		}
		if !plain.SeedDiscarded {
			if hit, _ := TraditionalDiscrepancy(plain.seedBP, plain.seedRef, o); hit {
				if plainHit, _ := TraditionalDiscrepancy(plain.seedBP, plain.seedRef, Options{Profile: prof, Buggy: true, StepLimit: 2_000_000}); !plainHit {
					t.Errorf("seed %d: stopped comparative baseline reports a discrepancy the full one does not", seed)
				}
			}
		}
	}
	if cut == 0 || discarded == 0 {
		t.Errorf("stopping removed findings from %d seeds and discarded %d seeds; the checks above are vacuous", cut, discarded)
	}

	kc := KeepConfig{Profile: prof, Bugs: prof.BugSet(), StepLimit: 1 << 40}
	loop := mustParse(t, `class T { void main() { int i = 0; while (true) { i = i + 1; } } }`)
	for name, keep := range map[string]func() bool{
		"crash":    func() bool { return kc.keep(CrashFinding, anySignature)(loop, &stop) },
		"diverges": func() bool { return kc.keep(Miscompilation, anySignature)(loop, &stop) },
	} {
		if keep() {
			t.Errorf("%s predicate kept a stopped run", name)
		}
	}
	if jit, interp := kc.runBoth(loop, &stop); jit.Term != vm.TermStopped || interp != nil {
		t.Errorf("stopped predicate runs: JIT run %v, interpreted run %v; want stopped and skipped", jit.Term, interp)
	}
}

// TestSeedTimeoutStopsChain is the regression test for the leaking
// SeedTimeout path, which abandoned a timed-out seed's goroutine to run
// on until StepLimit. Seed 1's default run loops past a billion steps,
// so under a practically unbounded StepLimit only the wall-clock budget
// can end it: the seed must be discarded, the campaign must return
// promptly, and no goroutine of the campaign may still be running.
func TestSeedTimeoutStopsChain(t *testing.T) {
	before := runtime.NumGoroutine()
	start := time.Now()
	stats := RunCampaign(CampaignOptions{
		Options:     Options{Profile: profile(t, "openj9like"), MaxIter: 2, Buggy: true, StepLimit: 1 << 60},
		Seeds:       2,
		Workers:     2,
		SeedTimeout: 300 * time.Millisecond,
	})
	if stats.DiscardedSeeds == 0 {
		t.Error("the looping seed was not discarded")
	}
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Errorf("campaign took %s: the timed-out seed was not stopped", elapsed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines running after the campaign, %d before: a seed chain outlived it", n, before)
	}
}
