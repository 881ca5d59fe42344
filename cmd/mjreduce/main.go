// Command mjreduce shrinks a bug-triggering MJ program while keeping
// its JIT discrepancy alive (the Perses/C-Reduce step of the paper's
// workflow).
//
// The predicate compares the program's behaviour on the seeded-defect
// VM against pure interpretation (built by harness.KeepConfig — the
// same predicates the campaign auto-reducer uses):
//
//	-mode diff   keep programs whose compiled output differs (default)
//	-mode crash  keep programs that crash the VM
//
// Each predicate run is bounded by -steps; the default, 0, is the
// campaign's own per-run budget, so a reproducer that a default
// campaign found re-validates under the budget that found it.
//
// Exit status: 0 on success, 1 when the input program does not
// trigger the finding at all (the keep(original) precondition — there
// is nothing to reduce, and proceeding would shrink toward an
// unrelated program), 2 on usage errors: bad flags or arguments, an
// unknown -profile or -mode, or a program that cannot be read or
// parsed.
//
// Candidates are tested on GOMAXPROCS cores at once and committed in
// candidate order, so the output is that of a one-at-a-time reduction.
//
// With -blame, the reduced reproducer is additionally fault-localized
// (internal/blame) under the campaign's symptom, pinned to the reduced
// program's own signature: the guilty optimization passes, the minimal
// forced-compilation method set and the seeded defect whose removal
// fixes it are reported on stderr.
//
// Usage:
//
//	mjreduce -profile openj9like mutant.mj > reduced.mj
//	mjreduce -profile openj9like -blame crash.mj > reduced.mj
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"artemis/internal/blame"
	"artemis/internal/harness"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
	"artemis/internal/profiles"
	"artemis/internal/reduce"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, runtime.GOMAXPROCS(0)))
}

// run is the command with its arguments, output streams and exit
// status made explicit; workers is how many reduction candidates it
// tests at once, which changes only how fast the result comes.
func run(args []string, stdout, stderr io.Writer, workers int) int {
	fs := flag.NewFlagSet("mjreduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	profileName := fs.String("profile", "hotspotlike", "VM profile")
	mode := fs.String("mode", "diff", "predicate: diff | crash")
	steps := fs.Int64("steps", 0, "per-run step budget (0 = the campaign's default budget)")
	rounds := fs.Int("rounds", 12, "max reduction rounds")
	blameOn := fs.Bool("blame", false, "after reduction, bisect the guilty pass set and shrink the forced-compilation method set")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "mjreduce:", err)
		return 2
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: mjreduce [flags] program.mj")
		return 2
	}
	prof, err := profiles.Get(*profileName)
	if err != nil {
		return usage(err)
	}
	kc := harness.KeepConfig{Profile: prof, Bugs: prof.BugSet(), StepLimit: *steps}
	keep, err := kc.TestForMode(*mode)
	if err != nil {
		return usage(err)
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return usage(err)
	}
	prog, err := parser.Parse(string(data))
	if err != nil {
		return usage(err)
	}

	before := ast.ProgramSize(prog)
	small, ok := reduce.ReduceParallel(prog, keep, workers, reduce.Options{MaxRounds: *rounds})
	if !ok {
		fmt.Fprintf(stderr,
			"mjreduce: %s never triggers the %q finding on profile %s — nothing to reduce\n"+
				"mjreduce: (check -profile, -mode and -steps match how the finding was produced)\n",
			fs.Arg(0), *mode, prof.Name)
		return 1
	}
	fmt.Fprintf(stderr, "mjreduce: %d -> %d statements\n", before, ast.ProgramSize(small))
	if *blameOn {
		localize(stderr, kc, small, *mode)
	}
	fmt.Fprint(stdout, ast.Print(small))
	return 0
}

// localize fault-localizes the reduced reproducer and reports the
// result on stderr (stdout stays the reduced program only).
func localize(stderr io.Writer, kc harness.KeepConfig, prog *ast.Program, mode string) {
	res, err := kc.Blame(prog, mode)
	if err != nil {
		fmt.Fprintf(stderr, "mjreduce: blame skipped (%v)\n", err)
		return
	}
	fmt.Fprintf(stderr, "mjreduce: blame: passes %s (%d probe runs)\n", res.PassLabel(), res.Runs)
	if res.SpaceVerdict == blame.VerdictMinimal {
		fmt.Fprintf(stderr, "mjreduce: blame: minimal forced-compilation set {%s}\n", strings.Join(res.MinimalMethods, ","))
	} else {
		fmt.Fprintf(stderr, "mjreduce: blame: space %s\n", res.SpaceVerdict)
	}
	if res.DefectVerdict == blame.VerdictLocalized {
		fmt.Fprintf(stderr, "mjreduce: blame: fixed by removing %s\n", res.FixedBy)
	} else {
		fmt.Fprintf(stderr, "mjreduce: blame: defect %s\n", res.DefectVerdict)
	}
	if res.IRInvariant != "" {
		fmt.Fprintf(stderr, "mjreduce: blame: IR invariant broken: %s\n", res.IRInvariant)
	}
}
