// Package jonm implements JIT-Op Neutral Mutation (Section 3.3-3.4 of
// the paper): semantics-preserving, source-level mutations built
// around JIT-relevant operations (loops and method calls) that steer
// the VM to different JIT compilation choices for the same observable
// behaviour. It is the Artemis mutation engine: three mutators — Loop
// Inserter (LI), Statement Wrapper (SW), and Method Invocator (MI) —
// driven by sketch-based loop synthesis (Algorithm 2).
//
// Neutrality is guaranteed by construction:
//
//   - synthesized loops have bounded, value-dependent trip counts
//     (the min(MIN,·)/max(MAX,·) headers of Figure 3, with a modulo
//     clamp so mutants stay within the step budget);
//   - every pre-existing variable the synthesized code writes is
//     backed up before the loop and restored after (the V' set of
//     Algorithm 2);
//   - synthesized code never prints (the paper redirects System.out;
//     MJ's only output channel is print, which we simply never emit);
//   - synthesized expressions cannot throw: divisions are |1-guarded
//     and array indexes are fresh loop counters that count up from 0
//     while below the array's length (replacing the paper's
//     catch-and-discard wrapping);
//   - MI's early-return prologue writes only fresh locals, so the
//     thousands of pre-invocations it triggers are pure heat.
package jonm

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"artemis/internal/lang/ast"
	"artemis/internal/lang/sem"
)

// MutatorName identifies one of the three mutators.
type MutatorName string

const (
	LI MutatorName = "LI" // Loop Inserter
	SW MutatorName = "SW" // Statement Wrapper
	MI MutatorName = "MI" // Method Invocator
)

// Config tunes mutation; Min/Max/StepMax are the loop-synthesis
// hyper-parameters of Figure 3, set per target VM (Section 4.1).
type Config struct {
	// Min and Max are the MIN/MAX loop-header bounds.
	Min, Max int64
	// StepMax bounds the random STEP (paper: 1..10).
	StepMax int64
	// Rand is the mutation RNG (required).
	Rand *rand.Rand
	// Mutators restricts the mutator set (default all three) — used
	// by the ablation benchmarks.
	Mutators []MutatorName
	// DisableSkeletons turns off statement-skeleton synthesis inside
	// loops (<stmts> holes stay empty) — used by the ablation
	// benchmarks; Section 3.4 argues skeletons diversify the control
	// and data flow of synthesized loops.
	DisableSkeletons bool
	// SeedInfo is the sem analysis of exactly the seed program passed
	// to Mutate (same AST object graph); it is required. The validity
	// check is incremental: only mutated methods are re-analyzed,
	// everything else reuses the seed's results.
	SeedInfo *sem.Info
}

func (c *Config) withDefaults() *Config {
	out := *c
	if out.Min == 0 {
		out.Min = 5000
	}
	if out.Max == 0 {
		out.Max = 10000
	}
	if out.StepMax == 0 {
		out.StepMax = 10
	}
	if len(out.Mutators) == 0 {
		out.Mutators = []MutatorName{LI, SW, MI}
	}
	return &out
}

// Application records one applied mutation for reports.
type Application struct {
	Mutator MutatorName
	Method  string
	Detail  string
}

// methodProb is the FlipCoin probability of mutating each method
// (Algorithm 1, line 11).
const methodProb = 0.5

// Report summarizes one Mutate call.
type Report struct {
	Applied []Application
	// Info is the mutant's semantic analysis, computed as part of the
	// validity check. Callers compile straight from it instead of
	// re-running sem on a program Mutate just analyzed.
	Info *sem.Info
	// Mutated is the set of method names whose bodies differ from the
	// seed. It is a superset of the Applied[].Method names: MI edits
	// both its target method and the method containing the chosen call
	// site. Methods outside this set are byte-identical to the seed's
	// and safe to reuse compiled.
	Mutated map[string]bool
}

func (r *Report) String() string {
	if len(r.Applied) == 0 {
		return "no mutations"
	}
	parts := make([]string, len(r.Applied))
	for i, a := range r.Applied {
		parts[i] = fmt.Sprintf("%s@%s", a.Mutator, a.Method)
	}
	return strings.Join(parts, ", ")
}

// Mutate implements the JoNM function of Algorithm 1: clone the seed,
// visit every method, flip a coin, and apply a random mutator at a
// random program point. The result is always a valid program that is
// observably equivalent to the seed; if no method got mutated, one
// forced mutation is applied so every call yields a distinct JIT
// trace.
func Mutate(seed *ast.Program, cfg *Config) (*ast.Program, *Report, error) {
	if cfg.SeedInfo == nil {
		return nil, nil, errors.New("jonm: Config.SeedInfo is required")
	}
	cfg = cfg.withDefaults()
	// Copy-on-write clone: the program shell (class, field and method
	// tables) is fresh, but a method body is deep-cloned only when a
	// mutator actually edits it (ensureCloned). Untouched methods stay
	// shared with the seed — safe because the incremental analysis
	// (AnalyzeDelta) never writes to unchanged methods, and mutant ASTs
	// are read-only downstream.
	cls := *seed.Class
	cls.Fields = append([]*ast.Field(nil), seed.Class.Fields...)
	cls.Methods = append([]*ast.Method(nil), seed.Class.Methods...)
	p := &ast.Program{Class: &cls}
	mc := newMutationCtx(p, cfg)
	report := &Report{}

	n := len(p.Class.Methods)
	for i := 0; i < n; i++ {
		if mc.rng.Float64() >= methodProb {
			continue
		}
		if app, ok := mc.mutateMethod(i); ok {
			report.Applied = append(report.Applied, app)
		}
	}
	if len(report.Applied) == 0 {
		// Force at least one mutation (LI on a random method) so the
		// mutant is never identical to the seed.
		i := mc.rng.Intn(n)
		if app, ok := mc.applyMutator(LI, i); ok {
			report.Applied = append(report.Applied, app)
		}
	}

	info, err := sem.AnalyzeDelta(p, cfg.SeedInfo, mc.mutated)
	if err != nil {
		return nil, nil, fmt.Errorf("jonm: mutation produced an invalid program (%s): %w", report, err)
	}
	report.Info = info
	report.Mutated = mc.mutated
	return p, report, nil
}

// mutationCtx carries shared state across one Mutate call.
type mutationCtx struct {
	prog *ast.Program
	cfg  *Config
	rng  *rand.Rand

	used    map[string]bool // every identifier in the program
	mutated map[string]bool // methods whose bodies were edited
	counter int

	// cloned[i] marks prog.Class.Methods[i] as privately owned (deep
	// cloned); ensureCloned flips it on first edit. Reusable buffers
	// keep collectPoints allocation-free in the steady state.
	cloned   []bool
	ptsBuf   []progPoint
	scopeBuf []scopeVar
}

func newMutationCtx(p *ast.Program, cfg *Config) *mutationCtx {
	mc := &mutationCtx{prog: p, cfg: cfg, rng: cfg.Rand, used: map[string]bool{}, mutated: map[string]bool{},
		cloned: make([]bool, len(p.Class.Methods))}
	if mc.rng == nil {
		mc.rng = rand.New(rand.NewSource(1))
	}
	for _, f := range p.Class.Fields {
		mc.used[f.Name] = true
	}
	for _, m := range p.Class.Methods {
		mc.used[m.Name] = true
		for _, prm := range m.Params {
			mc.used[prm.Name] = true
		}
		ast.WalkStmts(m, func(s ast.Stmt) bool {
			if d, ok := s.(*ast.DeclStmt); ok {
				mc.used[d.Name] = true
			}
			return true
		})
	}
	return mc
}

// touch records that a method's body was edited (feeds Report.Mutated
// and the incremental re-analysis set).
func (mc *mutationCtx) touch(methodName string) { mc.mutated[methodName] = true }

// fresh returns a new identifier unused anywhere in the program
// (the paper's final renaming step, done eagerly).
func (mc *mutationCtx) fresh(hint string) string {
	for {
		mc.counter++
		name := "jx" + hint + strconv.Itoa(mc.counter)
		if !mc.used[name] {
			mc.used[name] = true
			return name
		}
	}
}

// ensureCloned replaces method i with a deep clone on first edit and
// returns it (copy-on-write). Mutators must only ever write through
// the returned clone; the original stays shared with the seed.
func (mc *mutationCtx) ensureCloned(i int) *ast.Method {
	if !mc.cloned[i] {
		mc.prog.Class.Methods[i] = ast.CloneMethod(mc.prog.Class.Methods[i])
		mc.cloned[i] = true
	}
	return mc.prog.Class.Methods[i]
}

func (mc *mutationCtx) mutateMethod(i int) (Application, bool) {
	mut := mc.cfg.Mutators[mc.rng.Intn(len(mc.cfg.Mutators))]
	return mc.applyMutator(mut, i)
}

func (mc *mutationCtx) applyMutator(mut MutatorName, i int) (Application, bool) {
	switch mut {
	case LI:
		return mc.loopInserter(i)
	case SW:
		if app, ok := mc.statementWrapper(i); ok {
			return app, true
		}
		return mc.loopInserter(i) // no wrappable statement: fall back
	case MI:
		if app, ok := mc.methodInvocator(i); ok {
			return app, true
		}
		return mc.loopInserter(i) // no call site: fall back
	}
	return Application{}, false
}

// ---------------------------------------------------------------------------
// Program points and scopes
// ---------------------------------------------------------------------------

// scopeVar is a variable visible at a program point.
type scopeVar struct {
	name string
	typ  ast.Type
}

// progPoint is an insertion point ρ: a position inside a statement
// list. The variables in scope at a point are computed on demand for
// the one point a mutator actually picks (scopeAt) — materializing a
// scope snapshot per point was the mutation pipeline's largest
// allocation source.
type progPoint struct {
	list  *[]ast.Stmt
	index int
}

// insert places stmts at the point (before the statement currently at
// index).
func (pp *progPoint) insert(stmts ...ast.Stmt) {
	l := *pp.list
	out := make([]ast.Stmt, 0, len(l)+len(stmts))
	out = append(out, l[:pp.index]...)
	out = append(out, stmts...)
	out = append(out, l[pp.index:]...)
	*pp.list = out
}

// next returns the statement just after the point, or nil.
func (pp *progPoint) next() ast.Stmt {
	l := *pp.list
	if pp.index < len(l) {
		return l[pp.index]
	}
	return nil
}

// replaceNext swaps the statement after the point for repl.
func (pp *progPoint) replaceNext(repl ast.Stmt) {
	(*pp.list)[pp.index] = repl
}

// walkPoints enumerates m's insertion points in a fixed order (the
// ordinal space shared by collectPoints and scopeAt), maintaining the
// scope incrementally. visit receives the current scope slice — shared
// and only valid during that visit call — and returns false to stop
// the walk early.
func (mc *mutationCtx) walkPoints(m *ast.Method, visit func(list *[]ast.Stmt, index int, scope []scopeVar) bool) {
	scope := mc.scopeBuf[:0]
	for _, p := range m.Params {
		scope = append(scope, scopeVar{p.Name, p.Type})
	}

	stopped := false
	var walkList func(list *[]ast.Stmt)
	var walkStmt func(s ast.Stmt)

	walkList = func(list *[]ast.Stmt) {
		mark := len(scope)
		for i := 0; i <= len(*list); i++ {
			if !visit(list, i, scope) {
				stopped = true
				return
			}
			if i < len(*list) {
				s := (*list)[i]
				if d, ok := s.(*ast.DeclStmt); ok {
					scope = append(scope, scopeVar{d.Name, d.Type})
				}
				walkStmt(s)
				if stopped {
					return
				}
			}
		}
		scope = scope[:mark]
	}

	walkStmt = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.Block:
			walkList(&s.Stmts)
		case *ast.IfStmt:
			walkList(&s.Then.Stmts)
			if stopped {
				return
			}
			switch e := s.Else.(type) {
			case *ast.Block:
				walkList(&e.Stmts)
			case *ast.IfStmt:
				walkStmt(e)
			}
		case *ast.ForStmt:
			mark := len(scope)
			if d, ok := s.Init.(*ast.DeclStmt); ok {
				scope = append(scope, scopeVar{d.Name, d.Type})
			}
			walkList(&s.Body.Stmts)
			if stopped {
				return
			}
			scope = scope[:mark]
		case *ast.WhileStmt:
			walkList(&s.Body.Stmts)
		case *ast.SwitchStmt:
			for _, c := range s.Cases {
				walkList(&c.Body)
				if stopped {
					return
				}
			}
		}
	}

	walkList(&m.Body.Stmts)
	mc.scopeBuf = scope[:0]
}

// collectPoints enumerates every insertion point in m's body. The
// returned slice is owned by the mutationCtx and reused by the next
// collectPoints call: callers must be done with (or have copied)
// everything they keep before collecting again.
func (mc *mutationCtx) collectPoints(m *ast.Method) []progPoint {
	points := mc.ptsBuf[:0]
	mc.walkPoints(m, func(list *[]ast.Stmt, index int, _ []scopeVar) bool {
		points = append(points, progPoint{list: list, index: index})
		return true
	})
	mc.ptsBuf = points
	return points
}

// scopeAt returns a copy of the variables in scope at point ordinal
// idx of m (same ordinal space as collectPoints).
func (mc *mutationCtx) scopeAt(m *ast.Method, idx int) []scopeVar {
	var out []scopeVar
	ord := 0
	mc.walkPoints(m, func(_ *[]ast.Stmt, _ int, scope []scopeVar) bool {
		if ord == idx {
			out = append([]scopeVar(nil), scope...)
			return false
		}
		ord++
		return true
	})
	return out
}

// scopeWithFields extends a point's scope with all class fields
// (always visible).
func (mc *mutationCtx) scopeWithFields(vars []scopeVar) []scopeVar {
	out := append([]scopeVar(nil), vars...)
	for _, f := range mc.prog.Class.Fields {
		out = append(out, scopeVar{f.Name, f.Type})
	}
	return out
}
