package vm_test

import (
	"sync/atomic"
	"testing"
	"time"

	"artemis/internal/bugs"
	"artemis/internal/bytecode"
	"artemis/internal/jit"
	"artemis/internal/lang/parser"
	"artemis/internal/lang/sem"
	"artemis/internal/vm"
)

func compile(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return bytecode.MustCompile(sem.MustAnalyze(prog))
}

// stopConfigs are the execution modes a stop flag must reach: the
// interpreter, compiled code, and compiled code under the defect that
// charges 640 steps per charge point instead of 8.
func stopConfigs() map[string]vm.Config {
	compiled := func(set bugs.Set) vm.Config {
		return vm.Config{
			JIT: jit.New(jit.Options{MaxTier: 2, Bugs: set}),
			Policy: &vm.ForcedPolicy{
				Tier:    2,
				Compile: func(string, int64) bool { return true },
			},
		}
	}
	return map[string]vm.Config{
		"interpreted":    {},
		"compiled":       compiled(nil),
		"compiled-storm": compiled(bugs.NewSet("hs-perf-osr-storm")),
	}
}

const loopSrc = `class T {
    long spin(long n) { long s = 0L; for (long i = 0L; i < n; i++) { s += i ^ (s >> 3); } return s; }
    void main() { while (true) { print(spin(1000L)); } }
}`

// TestStopEndsRunWithinPoll: a run whose Stop flag is set ends as
// TermStopped within one poll interval (plus one compiled-code charge),
// whether the flag was set before the run or while it runs, and its
// output is inconclusive: no comparison counts it.
func TestStopEndsRunWithinPoll(t *testing.T) {
	bp := compile(t, loopSrc)
	for name, cfg := range stopConfigs() {
		// Seconds of work: a run the flag fails to stop times out.
		cfg.StepLimit = 200_000_000
		var stop atomic.Bool
		stop.Store(true)
		cfg.Stop = &stop
		res := vm.Run(cfg, bp)
		if res.Output.Term != vm.TermStopped {
			t.Fatalf("%s: pre-set flag: run ended %v (%s)", name, res.Output.Term, res.Output.Detail)
		}
		if res.Steps > vm.StopPoll+640 {
			t.Errorf("%s: pre-set flag: run took %d steps, want at most one poll interval (%d) plus one charge", name, res.Steps, vm.StopPoll)
		}
		if res.Output.Conclusive() || res.Output.Equivalent(res.Output) {
			t.Errorf("%s: a stopped run counts as a conclusive output", name)
		}

		var late atomic.Bool
		cfg.Stop = &late
		timer := time.AfterFunc(20*time.Millisecond, func() { late.Store(true) })
		res = vm.Run(cfg, bp)
		timer.Stop()
		if res.Output.Term != vm.TermStopped {
			t.Errorf("%s: flag set mid-run: run ended %v (%s)", name, res.Output.Term, res.Output.Detail)
		}
	}
}

// TestStopFlagChangesNoStepCount: an unset flag changes nothing a run
// reports — not the output, not the step count, and not the step at
// which a timeout fires, even though the VM now polls along the way.
func TestStopFlagChangesNoStepCount(t *testing.T) {
	finite := compile(t, `class T {
    long spin(long n) { long s = 0L; for (long i = 0L; i < n; i++) { s += i ^ (s >> 3); } return s; }
    void main() { for (int r = 0; r < 40; r++) { print(spin(2000L)); } }
}`)
	looping := compile(t, loopSrc)
	for name, cfg := range stopConfigs() {
		for _, limit := range []int64{vm.StopPoll - 1, vm.StopPoll, vm.StopPoll + 1, 3*vm.StopPoll + 5, 1_000_003} {
			for prog, bp := range map[string]*bytecode.Program{"finite": finite, "looping": looping} {
				cfg.StepLimit = limit
				cfg.Stop = nil
				want := vm.Run(cfg, bp)
				cfg.Stop = new(atomic.Bool)
				got := vm.Run(cfg, bp)
				if got.Output.Key() != want.Output.Key() || got.Steps != want.Steps {
					t.Errorf("%s %s StepLimit=%d: with an unset flag %s after %d steps, without %s after %d",
						name, prog, limit, got.Output.Key(), got.Steps, want.Output.Key(), want.Steps)
				}
			}
		}
	}
}
