// Command space enumerates the compilation space of a program
// (Figure 1 of the paper): every subset of its methods is forced to
// run compiled or interpreted, and all 2^n outputs are cross-checked.
//
// With no argument it uses the paper's 4-call example program.
//
// Usage:
//
//	space                               # Figure 1's program, 16 choices
//	space -profile artlike prog.mj      # enumerate a user program
//	space -buggy prog.mj                # hunt in the seeded-defect VM
//	space -workers 8 prog.mj            # evaluate choices on 8 workers
//	space -methods foo,bar prog.mj      # toggle only foo and bar (at most 16)
//	space -metrics space.json           # per-choice execution metrics
//
// Choices are evaluated in parallel (each on a fresh VM) and reported
// in mask order, so output is identical for any worker count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"artemis/internal/harness"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
	"artemis/internal/profiles"
	"artemis/internal/profiling"
	"artemis/internal/vm"
)

// figure1 is the example program of Figure 1: four method calls,
// sixteen compilation choices, and every one must print 3.
const figure1 = `class T {
    int baz() { return 1; }
    int bar() { return 2; }
    int foo() { return bar() + baz(); }
    void main() { print(foo()); }
}
`

func main() {
	profileName := flag.String("profile", "hotspotlike", "VM profile")
	buggy := flag.Bool("buggy", false, "use the seeded-defect VM")
	methodsFlag := flag.String("methods", "", "comma-separated methods to toggle (default: all)")
	workers := flag.Int("workers", 0, "parallel choice workers (0 = all CPUs); any value yields identical output")
	metricsOut := flag.String("metrics", "", "write per-choice execution metrics JSON to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	src := figure1
	if flag.NArg() == 1 {
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(data)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		fatal(err)
	}
	prof, err := profiles.Get(*profileName)
	if err != nil {
		fatal(err)
	}

	var methods []string
	if *methodsFlag != "" {
		if methods, err = parseMethods(*methodsFlag, prog); err != nil {
			fmt.Fprintln(os.Stderr, "space:", err)
			stopProf() // os.Exit skips defers
			os.Exit(2)
		}
	} else {
		for _, m := range prog.Class.Methods {
			methods = append(methods, m.Name)
		}
		sort.Strings(methods)
		if len(methods) > 6 {
			fmt.Fprintf(os.Stderr, "space: limiting to the first 6 of %d methods (64 choices); use -methods to pick\n", len(methods))
			methods = methods[:6]
		}
	}

	choices := harness.EnumerateSpace(prof, prog, methods, *buggy, *workers)
	fmt.Printf("compilation space of %s modulo %s: %d choices over methods %s\n\n",
		progName(prog), prof.Name, len(choices), strings.Join(methods, ", "))

	byKey := map[string]int{}
	for i, c := range choices {
		line := firstLine(c.Output)
		fmt.Printf("#%-3d %-40s -> %-22s trace %s\n", i+1, c.Label(methods), line, c.Trace.Key())
		byKey[c.Output.Key()]++
	}
	fmt.Println()
	if *metricsOut != "" {
		if err := writeSpaceMetrics(*metricsOut, prog, prof, methods, choices, len(byKey)); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}
	if len(byKey) == 1 {
		fmt.Println("all choices agree: no JIT-compiler bug observable in this space")
	} else {
		fmt.Printf("DISCREPANCY: %d distinct behaviours in one compilation space — JIT-compiler bug!\n", len(byKey))
		stopProf() // os.Exit skips defers
		os.Exit(3)
	}
}

// maxMethods caps -methods: the space of n methods has 2^n choices,
// and 16 methods make 65,536.
const maxMethods = 16

// parseMethods splits the comma-separated -methods list and checks it
// against prog: at most maxMethods names, each naming a method of prog,
// none twice.
func parseMethods(list string, prog *ast.Program) ([]string, error) {
	methods := strings.Split(list, ",")
	if len(methods) > maxMethods {
		return nil, fmt.Errorf("-methods names %d methods, at most %d allowed (%d choices)", len(methods), maxMethods, 1<<maxMethods)
	}
	for i, name := range methods {
		switch {
		case !slices.ContainsFunc(prog.Class.Methods, func(m *ast.Method) bool { return m.Name == name }):
			return nil, fmt.Errorf("-methods: class %s has no method %q", prog.Class.Name, name)
		case slices.Contains(methods[:i], name):
			return nil, fmt.Errorf("-methods: method %q is named twice", name)
		}
	}
	return methods, nil
}

// writeSpaceMetrics exports the enumerated space as deterministic JSON:
// one entry per compilation choice with its output key, JIT-trace key,
// and execution metrics (wall-clock fields are excluded by ExecStats'
// JSON tags, so the bytes are identical for any -workers value).
func writeSpaceMetrics(path string, prog *ast.Program, prof *profiles.Profile, methods []string, choices []harness.SpaceChoice, distinct int) error {
	type choiceJSON struct {
		Label         string        `json:"label"`
		OutputKey     string        `json:"output_key"`
		TraceKey      string        `json:"trace_key"`
		MaxTemp       int           `json:"max_temp"`
		HottestMethod string        `json:"hottest_method,omitempty"`
		Stats         *vm.ExecStats `json:"stats"`
	}
	report := struct {
		Program            string       `json:"program"`
		Profile            string       `json:"profile"`
		Methods            []string     `json:"methods"`
		DistinctBehaviours int          `json:"distinct_behaviours"`
		Choices            []choiceJSON `json:"choices"`
	}{
		Program: progName(prog), Profile: prof.Name, Methods: methods,
		DistinctBehaviours: distinct,
	}
	for _, c := range choices {
		report.Choices = append(report.Choices, choiceJSON{
			Label:         c.Label(methods),
			OutputKey:     c.Output.Key(),
			TraceKey:      c.Trace.Key(),
			MaxTemp:       c.Trace.MaxTemp(),
			HottestMethod: c.Trace.HottestMethod(),
			Stats:         c.Stats,
		})
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func progName(p *ast.Program) string { return p.Class.Name }

func firstLine(o *vm.Output) string {
	switch o.Term {
	case vm.TermCrash:
		return "CRASH"
	case vm.TermException:
		return "exception: " + o.Detail
	case vm.TermTimeout:
		return "timeout"
	}
	if len(o.Lines) == 0 {
		return "(no output)"
	}
	s := strings.Join(o.Lines, ",")
	if len(s) > 20 {
		s = s[:20] + "…"
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "space:", err)
	os.Exit(1)
}
