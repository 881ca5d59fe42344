package jit

import (
	"fmt"
	"sync"
	"testing"

	"artemis/internal/bugs"
	"artemis/internal/vm"
)

// TestConcurrentDisablePasses pins per-compiler pass switches
// (Options.DisablePasses, which replaced the mutable package global
// DebugDisablePass): two VMs running concurrently, each with its own
// compiler, disable a different pass, and each pipeline must skip only
// its own. Under the old global, one goroutine's bisection probe would
// silently change what the other compiled — exactly the interference
// `go test -race ./internal/jit` exists to catch here.
func TestConcurrentDisablePasses(t *testing.T) {
	// The flagship GCM store-sink shape: correct output 20, buggy 80.
	bp := compileSrc(t, `class T {
        int l = 0;
        void g() {
            for (int i = 0; i < 10; i++) {
                for (int w = 0; w < 13; w += 4) { }
                l += 2;
            }
        }
        void main() { g(); print(l); }
    }`)
	set := bugs.NewSet("hs-gcm-store-sink")
	forced := func() vm.Policy {
		return &vm.ForcedPolicy{
			Tier:    2,
			Compile: func(string, int64) bool { return true },
		}
	}

	const rounds = 20
	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan error, 2*rounds)

	// Goroutine A disables gcm: the store sink cannot happen, output
	// stays correct, and "gcm" must be absent from its pass stats.
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			res := vm.Run(vm.Config{
				JIT:          New(Options{MaxTier: 2, Bugs: set, DisablePasses: []string{"gcm"}}),
				Policy:       forced(),
				CollectStats: true,
			}, bp)
			if res.Output.Term != vm.TermNormal || res.Output.Lines[0] != "20" {
				errs <- errf("disable gcm: got %v %v, want 20 (gcm ran despite being disabled)", res.Output.Term, res.Output.Lines)
				return
			}
			if _, ran := res.Stats.OptsByPass["gcm"]; ran {
				errs <- errf("disable gcm: OptsByPass records gcm rewrites: %v", res.Stats.OptsByPass)
				return
			}
		}
	}()

	// Goroutine B disables gvn: gcm still runs, the seeded bug still
	// sinks the increment, and "gcm" must appear in its pass stats
	// (the buggy sink applies at least one move, so the n==0 skip in
	// ExecStats folding cannot hide it).
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			res := vm.Run(vm.Config{
				JIT:          New(Options{MaxTier: 2, Bugs: set, DisablePasses: []string{"gvn"}}),
				Policy:       forced(),
				CollectStats: true,
			}, bp)
			if res.Output.Term != vm.TermNormal || res.Output.Lines[0] != "80" {
				errs <- errf("disable gvn: got %v %v, want 80 (another goroutine's disable set leaked in)", res.Output.Term, res.Output.Lines)
				return
			}
			if _, ran := res.Stats.OptsByPass["gcm"]; !ran {
				errs <- errf("disable gvn: gcm missing from OptsByPass: %v", res.Stats.OptsByPass)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }
