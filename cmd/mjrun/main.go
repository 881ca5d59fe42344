// Command mjrun executes one MJ program on the simulated JVM.
//
// Usage:
//
//	mjrun [flags] program.mj
//
// Examples:
//
//	mjrun -profile hotspotlike prog.mj          # tiered, correct JIT
//	mjrun -xint prog.mj                          # pure interpretation
//	mjrun -buggy -profile openj9like prog.mj     # seeded-defect VM
//	mjrun -count0 prog.mj                        # force-compile everything
//	mjrun -trace prog.mj                         # print the JIT trace
//	mjrun -disasm prog.mj                        # show bytecode and exit
package main

import (
	"flag"
	"fmt"
	"os"

	"artemis/internal/bytecode"
	"artemis/internal/lang/parser"
	"artemis/internal/lang/sem"
	"artemis/internal/profiles"
	"artemis/internal/vm"
)

func main() {
	profileName := flag.String("profile", "hotspotlike", "VM profile: hotspotlike, openj9like, artlike")
	xint := flag.Bool("xint", false, "interpret only (no JIT)")
	buggy := flag.Bool("buggy", false, "enable the profile's seeded JIT defects")
	count0 := flag.Bool("count0", false, "force-compile every method before its first call (-Xjit:count=0 analogue)")
	trace := flag.Bool("trace", false, "record and print the JIT trace (temperature vectors)")
	disasm := flag.Bool("disasm", false, "print bytecode disassembly and exit")
	steps := flag.Int64("steps", 400_000_000, "abstract step budget")
	stats := flag.Bool("stats", false, "print execution statistics")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mjrun [flags] program.mj")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		fatal(err)
	}
	bp, err := bytecode.Compile(info)
	if err != nil {
		fatal(err)
	}
	if *disasm {
		fmt.Print(bytecode.Disasm(bp))
		return
	}

	prof, err := profiles.Get(*profileName)
	if err != nil {
		fatal(err)
	}
	var cfg vm.Config
	switch {
	case *xint:
		cfg = prof.InterpreterConfig()
	default:
		cfg = prof.VMConfig(*buggy)
	}
	if *count0 {
		cfg.Policy = &vm.ForcedPolicy{
			Tier:    prof.MaxTier,
			Compile: func(string, int64) bool { return true },
		}
	}
	cfg.StepLimit = *steps
	cfg.RecordTrace = *trace
	cfg.CollectStats = *stats

	res := vm.Run(cfg, bp)
	for _, line := range res.Output.Lines {
		fmt.Println(line)
	}
	if res.Output.NLines > len(res.Output.Lines) {
		fmt.Printf("... (%d more lines, digest %016x)\n", res.Output.NLines-len(res.Output.Lines), res.Output.Hash())
	}
	switch res.Output.Term {
	case vm.TermNormal:
	case vm.TermException:
		fmt.Printf("Exception: %s\n", res.Output.Detail)
	case vm.TermCrash:
		fmt.Printf("VM CRASH: %s\n", res.Output.Detail)
	case vm.TermTimeout:
		fmt.Println("TIMEOUT: step budget exhausted")
	}
	if *trace && res.Trace != nil {
		fmt.Printf("JIT trace (%d calls): %s\n", res.Trace.NTotal, res.Trace)
	}
	if *stats {
		fmt.Printf("steps=%d compilations=%d deopts=%d osr=%d gc=%d\n",
			res.Steps, res.Compilations, res.Deopts, res.OSREntries, res.GCRuns)
		if s := res.Stats; s != nil {
			fmt.Printf("interp-steps=%d compiled-steps=%d by-tier=%v failed=%d traps=%d peak-heap=%d\n",
				s.InterpSteps, s.CompiledSteps, s.CompilationsByTier,
				s.FailedCompilations, s.UncommonTraps, s.PeakHeapWords)
			if len(s.OptsByPass) > 0 {
				fmt.Printf("jit-opts=%v\n", s.OptsByPass)
			}
		}
	}
	if res.Output.Term == vm.TermCrash {
		os.Exit(3)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mjrun:", err)
	os.Exit(1)
}
