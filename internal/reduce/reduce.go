// Package reduce shrinks bug-triggering MJ programs while preserving
// a caller-defined "interestingness" predicate — the role Perses and
// C-Reduce play in the paper's workflow (Section 4.1): JavaFuzzer
// seeds are large, so every reported bug is first reduced to a small
// reproducer.
//
// The reducer is syntax-guided delta debugging on the AST: candidate
// transformations (drop a method, field or run of statements, unwrap a
// loop, conditional or block) are attempted greedily in a fixed order,
// and the first one that keeps the program valid and the predicate
// true is kept. Like C-Reduce, transformations need not preserve
// semantics — only the predicate matters.
//
// Like C-Reduce, ReduceParallel tests several candidates at once, but
// it commits them in candidate order: the first candidate accepted in
// order wins, and the evaluations of later candidates still running are
// stopped and dropped. Its result is therefore the one-at-a-time
// result for any number of workers. A finished evaluation frees its
// worker at once, so later candidates run ahead of an older, slower
// one (typically a run that ends at its step budget, which is never
// kept) instead of waiting for its verdict.
//
// A rescan can propose a candidate already tested: after an edit is
// accepted inside a region that an earlier, rejected candidate removed
// whole, removing that region again prints the same program. Test.Memo
// answers such repeats from a verdict memo without running the Test.
package reduce

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"artemis/internal/lang/ast"
	"artemis/internal/lang/sem"
)

// Predicate reports whether a candidate program is still interesting
// (e.g. still triggers the discrepancy). It must be deterministic.
type Predicate func(*ast.Program) bool

// Test is a Predicate that ReduceParallel may evaluate on several
// candidates at once: it must be deterministic and safe for concurrent
// use, and it should give up soon after stop is set (stop is nil when
// nothing can stop it). The answer of a stopped evaluation is ignored.
type Test func(p *ast.Program, stop *atomic.Bool) bool

// Predicate returns t as a Predicate that is never stopped.
func (t Test) Predicate() Predicate {
	return func(p *ast.Program) bool { return t(p, nil) }
}

// Memo returns t with a verdict memo: a candidate that prints the same
// as one evaluated before gets the stored verdict back without running
// t, so t must answer alike for programs that print alike. The memo
// keys each verdict by the SHA-256 of the printed program and keeps
// only the keys, and it stores only verdicts of evaluations whose stop
// flag was never set: a stopped evaluation's answer says nothing about
// the candidate. The memo is safe for concurrent use, so the memoized
// Test is whenever t is. Build one per reduction.
func (t Test) Memo() Test {
	var mu sync.Mutex
	verdicts := make(map[[sha256.Size]byte]bool)
	return func(p *ast.Program, stop *atomic.Bool) bool {
		key := sha256.Sum256([]byte(ast.Print(p)))
		mu.Lock()
		kept, ok := verdicts[key]
		mu.Unlock()
		if ok {
			return kept
		}
		kept = t(p, stop)
		if stop == nil || !stop.Load() {
			mu.Lock()
			verdicts[key] = kept
			mu.Unlock()
		}
		return kept
	}
}

// Options tunes reduction.
type Options struct {
	// MaxRounds bounds full fixpoint rounds (default 20).
	MaxRounds int
	// MaxEvals caps predicate evaluations, the precondition probe
	// included (0 = no cap). Once it is spent every later candidate is
	// rejected, so a reduction winds down instead of stalling its
	// caller. Evaluations are counted in candidate order, as a
	// one-at-a-time reduction makes them, so the cap ends a reduction
	// at the same candidate for any number of workers.
	MaxEvals int
}

// ReduceChecked returns the smallest program found that satisfies
// keep; the input is not modified. The precondition keep(p) is
// verified up front: if the input is not interesting to begin with,
// nothing the reducer keeps could be either (every accepted edit
// re-checks keep), so instead of shrinking against a vacuous predicate
// ReduceChecked returns an unchanged clone and false. keep is called
// one candidate at a time, in order, on the caller's goroutine.
func ReduceChecked(p *ast.Program, keep Predicate, opts Options) (*ast.Program, bool) {
	return ReduceParallel(p, func(q *ast.Program, _ *atomic.Bool) bool { return keep(q) }, 1, opts)
}

// ReduceParallel is ReduceChecked for a Test that it evaluates on up to
// workers candidates at once, each on its own snapshot of the program.
// The result, and the evaluations counted against MaxEvals, are the
// same for every workers value. No evaluation outlives the call.
func ReduceParallel(p *ast.Program, keep Test, workers int, opts Options) (*ast.Program, bool) {
	r := newReducer(p, keep, workers, opts)
	return r.cur, r.run(opts.MaxRounds)
}

// reducer holds one reduction's state. cur is only ever edited by the
// calling goroutine; evaluations running elsewhere see snapshots.
type reducer struct {
	cur      *ast.Program
	keep     Test
	workers  int
	maxEvals int // 0 = no cap
	evals    int // evaluations counted so far, in candidate order
}

func newReducer(p *ast.Program, keep Test, workers int, opts Options) *reducer {
	return &reducer{cur: ast.CloneProgram(p), keep: keep, workers: workers, maxEvals: opts.MaxEvals}
}

// run checks the precondition and then runs fixpoint rounds of every
// candidate kind; it reports whether the precondition held.
func (r *reducer) run(maxRounds int) bool {
	if maxRounds <= 0 {
		maxRounds = 20
	}
	r.evals++
	if !r.keep(r.cur, nil) {
		return false
	}
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, gen := range []func(*ast.Program) candidates{
			removeMethodCandidates, removeFieldCandidates, statementCandidates,
		} {
			for r.first(gen(r.cur)) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return true
}

// spent reports whether the evaluation budget is used up.
func (r *reducer) spent() bool { return r.maxEvals > 0 && r.evals >= r.maxEvals }

// valid reports whether the candidate still type-checks; reductions
// that break validity are discarded before consulting the predicate.
func valid(p *ast.Program) bool {
	_, err := sem.Analyze(p)
	return err == nil
}

// candidate is one attempted transformation: it edits the program it
// was generated from in place and returns the function that undoes the
// edit. Applying it again after the undo makes the same edit.
type candidate func() (undo func())

// candidates yields a program's candidates in order, lazily, until
// yield returns false.
type candidates func(yield func(candidate) bool)

// first applies to cur the first candidate, in order, that keeps cur
// valid and interesting, and reports whether there was one. Otherwise
// cur is left as it was.
func (r *reducer) first(cands candidates) bool {
	if r.workers > 1 {
		return r.firstParallel(cands)
	}
	found := false
	cands(func(c candidate) bool {
		if r.spent() {
			return false
		}
		undo := c()
		if valid(r.cur) {
			r.evals++
			if found = r.keep(r.cur, nil); found {
				return false
			}
		}
		undo()
		return true
	})
	return found
}

// evaluation is one candidate under test on a snapshot. Its goroutine
// writes kept and panicked before sending it on the finished channel;
// the caller reads them only after receiving it.
type evaluation struct {
	apply    candidate
	stop     atomic.Bool
	done     bool // received from the finished channel
	kept     bool
	panicked any // a panic in the Test, raised again if its turn comes
}

// firstParallel is first with up to r.workers evaluations running.
// Candidates are generated, applied and checked for validity here, in
// order; each valid one is tested on a snapshot of cur in its own
// goroutine. A finished evaluation frees its worker at once, while
// verdicts are settled in candidate order. Because a one-at-a-time
// scan would evaluate every valid candidate before the first accepted
// one, the k-th unsettled candidate would be evaluation evals+k there:
// none starts that a budget-limited scan would never have evaluated.
func (r *reducer) firstParallel(cands candidates) bool {
	var window []*evaluation // unsettled, in candidate order
	running := 0
	// Sized to the evaluations that can run at once, so a finishing
	// evaluation never blocks.
	finished := make(chan *evaluation, r.workers)
	wait := func() {
		e := <-finished
		e.done = true
		running--
	}
	// settle waits for a running evaluation to finish and then takes
	// the verdicts that are in, oldest first, up to the first one still
	// running. On acceptance it stops and waits for every later
	// evaluation and applies the winner to cur.
	settle := func() bool {
		wait()
		for len(window) > 0 && window[0].done {
			e := window[0]
			window = window[1:]
			r.evals++
			if !e.kept && e.panicked == nil {
				continue
			}
			for _, later := range window {
				later.stop.Store(true)
			}
			for running > 0 {
				wait()
			}
			window = nil
			if e.panicked != nil {
				panic(e.panicked)
			}
			e.apply()
			return true
		}
		return false
	}
	found := false
	cands(func(c candidate) bool {
		if r.maxEvals > 0 && r.evals+len(window) >= r.maxEvals {
			return false
		}
		undo := c()
		if !valid(r.cur) {
			undo()
			return true
		}
		snap := ast.CloneProgram(r.cur)
		undo()
		for running == r.workers {
			if found = settle(); found {
				return false
			}
		}
		e := &evaluation{apply: c}
		running++
		go func() {
			defer func() {
				e.panicked = recover()
				finished <- e
			}()
			e.kept = r.keep(snap, &e.stop)
		}()
		window = append(window, e)
		return true
	})
	for !found && len(window) > 0 {
		found = settle()
	}
	return found
}

// removeMethodCandidates proposes dropping whole methods (main stays).
func removeMethodCandidates(p *ast.Program) candidates {
	return func(yield func(candidate) bool) {
		cls := p.Class
		for i, m := range cls.Methods {
			if m.Name == "main" {
				continue
			}
			if !yield(func() func() {
				saved := cls.Methods
				cls.Methods = append(append([]*ast.Method(nil), saved[:i]...), saved[i+1:]...)
				return func() { cls.Methods = saved }
			}) {
				return
			}
		}
	}
}

// removeFieldCandidates proposes dropping fields.
func removeFieldCandidates(p *ast.Program) candidates {
	return func(yield func(candidate) bool) {
		cls := p.Class
		for i := range cls.Fields {
			if !yield(func() func() {
				saved := cls.Fields
				cls.Fields = append(append([]*ast.Field(nil), saved[:i]...), saved[i+1:]...)
				return func() { cls.Fields = saved }
			}) {
				return
			}
		}
	}
}

// statementCandidates proposes, for every statement list of every
// method in turn, the edits of listCandidates.
func statementCandidates(p *ast.Program) candidates {
	return func(yield func(candidate) bool) {
		more := true
		for _, m := range p.Class.Methods {
			for _, lst := range collectLists(m) {
				listCandidates(lst)(func(c candidate) bool {
					more = yield(c)
					return more
				})
				if !more {
					return
				}
			}
		}
	}
}

// collectLists returns pointers to every statement list in the method.
func collectLists(m *ast.Method) []*[]ast.Stmt {
	var lists []*[]ast.Stmt
	var visit func(s ast.Stmt)
	visitBlock := func(b *ast.Block) {
		if b == nil {
			return
		}
		lists = append(lists, &b.Stmts)
	}
	visit = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.Block:
			visitBlock(s)
			for _, bs := range s.Stmts {
				visit(bs)
			}
		case *ast.IfStmt:
			visitBlock(s.Then)
			for _, bs := range s.Then.Stmts {
				visit(bs)
			}
			if s.Else != nil {
				visit(s.Else)
			}
		case *ast.ForStmt:
			visitBlock(s.Body)
			for _, bs := range s.Body.Stmts {
				visit(bs)
			}
		case *ast.WhileStmt:
			visitBlock(s.Body)
			for _, bs := range s.Body.Stmts {
				visit(bs)
			}
		case *ast.SwitchStmt:
			for _, c := range s.Cases {
				c := c
				lists = append(lists, &c.Body)
				for _, bs := range c.Body {
					visit(bs)
				}
			}
		}
	}
	lists = append(lists, &m.Body.Stmts)
	for _, s := range m.Body.Stmts {
		visit(s)
	}
	return lists
}

// listCandidates proposes edits of one statement list: chunked removal
// (ddmin-flavoured: the whole list, halves, quarters, ..., singles)
// and then compound unwrapping (if -> a branch's statements; loops ->
// the body once; switch -> a single arm's body; block -> its
// statements).
func listCandidates(lst *[]ast.Stmt) candidates {
	return func(yield func(candidate) bool) {
		n := len(*lst)
		for size := n; size >= 1; size /= 2 {
			for start := 0; start+size <= n; start++ {
				if !yield(func() func() {
					saved := *lst
					*lst = append(append([]ast.Stmt(nil), saved[:start]...), saved[start+size:]...)
					return func() { *lst = saved }
				}) {
					return
				}
			}
		}
		for i, s := range *lst {
			var replacements [][]ast.Stmt
			switch s := s.(type) {
			case *ast.IfStmt:
				replacements = append(replacements, s.Then.Stmts)
				if e, ok := s.Else.(*ast.Block); ok {
					replacements = append(replacements, e.Stmts)
				}
			case *ast.ForStmt:
				replacements = append(replacements, s.Body.Stmts)
			case *ast.WhileStmt:
				replacements = append(replacements, s.Body.Stmts)
			case *ast.SwitchStmt:
				for _, c := range s.Cases {
					replacements = append(replacements, c.Body)
				}
			case *ast.Block:
				replacements = append(replacements, s.Stmts)
			}
			for _, repl := range replacements {
				if !yield(func() func() {
					saved := *lst
					next := append([]ast.Stmt(nil), saved[:i]...)
					// Deep-clone replacement statements: they may alias
					// nodes reachable from the saved list.
					for _, rs := range repl {
						next = append(next, ast.CloneStmt(rs))
					}
					*lst = append(next, saved[i+1:]...)
					return func() { *lst = saved }
				}) {
					return
				}
			}
		}
	}
}
