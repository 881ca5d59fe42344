// Command bench measures the throughput-critical paths of the
// validation pipeline — campaign end-to-end throughput, the
// mutate+compile front-end, raw interpretation, the compiled-code
// executor and fault localization — and writes the results as
// deterministic-shape JSON (BENCH_campaign.json by default) so CI can
// archive and diff them across commits.
//
// Usage:
//
//	bench                          # full measurement, BENCH_campaign.json
//	bench -seeds 5 -benchtime 0.1  # the cheap smoke variant `make ci` runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"artemis/internal/blame"
	"artemis/internal/bugs"
	"artemis/internal/bytecode"
	"artemis/internal/fuzz"
	"artemis/internal/harness"
	"artemis/internal/jonm"
	"artemis/internal/lang/parser"
	"artemis/internal/lang/sem"
	"artemis/internal/profiles"
	"artemis/internal/vm"
)

type benchJSON struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

type report struct {
	Campaign struct {
		Profile    string  `json:"profile"`
		Seeds      int     `json:"seeds"`
		Mutants    int     `json:"mutants"`
		Runs       int     `json:"runs"`
		ElapsedSec float64 `json:"elapsed_sec"`
		RunsPerSec float64 `json:"runs_per_sec"`
	} `json:"campaign"`
	MutateCompile benchJSON `json:"mutate_compile"`
	Interpreter   benchJSON `json:"interpreter"`
	// Compiled measures the compiled-code executor on a phi-heavy loop
	// forced through the optimizing tier (the root package's
	// BenchmarkCompiledExecutor); steps_per_run pins the work measured.
	Compiled struct {
		benchJSON
		StepsPerRun int64 `json:"steps_per_run"`
	} `json:"compiled"`
	// Blame measures one full fault localization (pass bisection +
	// space shrink) of the flagship GCM reproducer — the cost a
	// campaign pays per first-seen finding when -blame is on.
	Blame benchJSON `json:"blame"`
}

func main() {
	testing.Init() // registers test.benchtime so micro-benchmark time is tunable
	out := flag.String("out", "BENCH_campaign.json", "output JSON path")
	seeds := flag.Int("seeds", 30, "campaign seeds for the throughput measurement")
	benchtime := flag.Float64("benchtime", 1, "seconds per micro-benchmark")
	flag.Parse()
	if err := flag.Set("test.benchtime", fmt.Sprintf("%gs", *benchtime)); err != nil {
		fatal(err)
	}

	prof, err := profiles.Get("hotspotlike")
	if err != nil {
		fatal(err)
	}

	var r report

	fmt.Fprintf(os.Stderr, "bench: campaign (%d seeds)...\n", *seeds)
	stats := harness.RunCampaign(harness.CampaignOptions{
		Options: harness.Options{Profile: prof, MaxIter: 8, Buggy: true},
		Seeds:   *seeds,
	})
	r.Campaign.Profile = stats.Profile
	r.Campaign.Seeds = stats.Seeds
	r.Campaign.Mutants = stats.Mutants
	r.Campaign.Runs = stats.Runs
	r.Campaign.ElapsedSec = stats.Elapsed.Seconds()
	r.Campaign.RunsPerSec = stats.Throughput()

	fmt.Fprintln(os.Stderr, "bench: mutate+compile front-end...")
	r.MutateCompile = run(benchMutateCompile(prof))

	fmt.Fprintln(os.Stderr, "bench: interpreter...")
	r.Interpreter = run(benchInterpreter())

	fmt.Fprintln(os.Stderr, "bench: compiled-code executor...")
	r.Compiled.benchJSON = run(benchCompiled(prof, &r.Compiled.StepsPerRun))

	fmt.Fprintln(os.Stderr, "bench: fault localization...")
	r.Blame = run(benchBlame(prof))

	data, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "bench: report written to %s\n", *out)
	fmt.Printf("campaign %.2f runs/s | mutate+compile %d ns/op %d allocs/op | interpreter %d ns/op %d allocs/op | compiled %d ns/op %d allocs/op | blame %d ns/op\n",
		r.Campaign.RunsPerSec,
		r.MutateCompile.NsPerOp, r.MutateCompile.AllocsPerOp,
		r.Interpreter.NsPerOp, r.Interpreter.AllocsPerOp,
		r.Compiled.NsPerOp, r.Compiled.AllocsPerOp,
		r.Blame.NsPerOp)
}

// phiLoopSrc is BenchmarkCompiledExecutor's program: eight locals live
// around a hot loop, so every back edge resolves eight phis with a run
// of edge moves.
const phiLoopSrc = `class T {
    long run(int n) {
        long a = 1L; long b = 2L; long c = 3L; long d = 4L;
        int e = 5; int f = 6; int g = 7; int h = 8;
        for (int i = 0; i < n; i++) {
            long t = a;
            a = b + i;
            b = c ^ t;
            c = d - (a >> 3);
            d = t;
            int u = e;
            e = f + i;
            f = g ^ u;
            g = h * 3;
            h = u;
        }
        return a + b + c + d + e + f + g + h;
    }
    void main() { print(run(100000)); }
}`

// benchCompiled measures the compiled-code executor: phiLoopSrc forced
// through the optimizing tier with a reused Scratch, storing the steps
// one run charges in *steps.
func benchCompiled(prof *profiles.Profile, steps *int64) func(b *testing.B) {
	prog, err := parser.Parse(phiLoopSrc)
	if err != nil {
		fatal(err)
	}
	bp := harness.Compile(prog)
	scratch := &vm.Scratch{}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := prof.VMConfig(false)
			cfg.Scratch = scratch
			cfg.Policy = &vm.ForcedPolicy{
				Tier:       2,
				Choice:     func(string, int64) vm.ForceChoice { return vm.ForceCompile },
				DisableOSR: true,
			}
			*steps = vm.Run(cfg, bp).Steps
		}
	}
}

// benchMutateCompile measures one mutant's front-end cost the way a
// campaign pays it: JoNM mutation against a pre-analyzed seed plus an
// incremental (method-granular) compile against the seed's program.
func benchMutateCompile(prof *profiles.Profile) func(b *testing.B) {
	seedProg := fuzz.Generate(fuzz.Options{Seed: 1})
	seedInfo := sem.MustAnalyze(seedProg)
	seedBP := bytecode.MustCompile(seedInfo)
	cfg := &jonm.Config{
		Min: prof.SynMin, Max: prof.SynMax, StepMax: prof.SynStepMax,
		Rand:     rand.New(rand.NewSource(1)),
		SeedInfo: seedInfo,
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, rep, err := jonm.Mutate(seedProg, cfg)
			if err != nil {
				b.Fatal(err)
			}
			bytecode.MustCompileDelta(rep.Info, seedBP, rep.Mutated)
		}
	}
}

// benchInterpreter measures raw bytecode interpretation with a reused
// per-worker Scratch, matching the campaign's steady-state run path.
func benchInterpreter() func(b *testing.B) {
	prog, err := parser.Parse(`class T { void main() {
        long a = 0;
        for (int i = 0; i < 200000; i++) { a += i ^ (a >> 3); }
        print(a);
    } }`)
	if err != nil {
		fatal(err)
	}
	bp := harness.Compile(prog)
	scratch := &vm.Scratch{}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vm.Run(vm.Config{Scratch: scratch}, bp)
		}
	}
}

// benchBlame measures one complete fault localization of the flagship
// GCM store-sink reproducer: the per-finding bisection cost campaigns
// pay with Blame enabled.
func benchBlame(prof *profiles.Profile) func(b *testing.B) {
	prog, err := parser.Parse(`class T {
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
    }`)
	if err != nil {
		fatal(err)
	}
	ref := vm.Run(vm.Config{}, harness.Compile(prog)).Output
	symptom := func(out *vm.Output) bool { return !out.Equivalent(ref) }
	cfg := blame.Config{Profile: prof, Bugs: bugs.NewSet("hs-gcm-store-sink")}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := blame.Localize(prog, symptom, cfg)
			if res.PassVerdict != blame.VerdictLocalized {
				b.Fatalf("localization regressed: %s", res.PassVerdict)
			}
		}
	}
}

func run(fn func(b *testing.B)) benchJSON {
	res := testing.Benchmark(fn)
	return benchJSON{
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
