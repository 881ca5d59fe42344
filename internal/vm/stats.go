package vm

// ExecStats is the per-run execution metrics record collected when
// Config.CollectStats is set: how much work the run did in each
// execution mode, how the JIT was exercised, and how the heap behaved.
// It is the observability counterpart of the JIT trace — the trace
// says *which* temperature vectors a run took (Definition 3.2/3.3),
// ExecStats says how much of the compilation machinery it actually
// touched, so a campaign can prove it explored the compilation space
// rather than degenerating into plain differential testing.
//
// Every field except CompileNanos is deterministic for a deterministic
// program: campaigns aggregate ExecStats into byte-identical metrics
// for any worker count. CompileNanos is wall clock and is therefore
// excluded from JSON export (`json:"-"`).
type ExecStats struct {
	// InterpSteps / CompiledSteps split Result.Steps by execution
	// mode: abstract steps consumed by the interpreter loop vs. by
	// compiled code charging through Env.Step.
	InterpSteps   int64 `json:"interp_steps"`
	CompiledSteps int64 `json:"compiled_steps"`

	// CompilationsByTier[t-1] counts successful compilations at tier t
	// (regular and OSR entries combined).
	CompilationsByTier []int64 `json:"compilations_by_tier"`
	// OSRCompilations counts the subset of compilations that produced
	// an on-stack-replacement entry.
	OSRCompilations int64 `json:"osr_compilations"`
	// FailedCompilations counts benign compilation failures (the
	// method fell back to the interpreter or a lower tier).
	FailedCompilations int64 `json:"failed_compilations"`

	// UncommonTraps counts uncommon-trap hits in compiled code and
	// Deopts the deoptimizations they forced. In this VM every trap
	// hit that does not crash the trap stub deoptimizes, so the two
	// coincide by construction; both are kept because real VMs (and
	// future policies) can retrap without invalidating.
	UncommonTraps int64 `json:"uncommon_traps"`
	Deopts        int64 `json:"deopts"`
	// DeoptsByReason counts deopts by Deopt.Reason, a fixed template
	// with no method name or pc in it, so the key set stays small.
	DeoptsByReason map[string]int64 `json:"deopts_by_reason,omitempty"`

	// GCCycles is the number of stop-the-world collections;
	// PeakHeapWords the high-water mark of allocated payload words.
	GCCycles      int64 `json:"gc_cycles"`
	PeakHeapWords int64 `json:"peak_heap_words"`

	// OptsByPass counts optimizations applied per JIT pass across all
	// compilations of the run (pass name -> rewrites applied).
	OptsByPass map[string]int64 `json:"opts_by_pass,omitempty"`

	// CompileNanos is total wall-clock compile time. Wall clock is not
	// deterministic, so it never appears in exported metrics.
	CompileNanos int64 `json:"-"`
}

// Merge folds o into s. Counters add; PeakHeapWords takes the max.
// Merge is commutative and associative over every exported field, so
// campaign aggregation is order-independent (the harness still merges
// in seed order for uniformity with finding dedup).
func (s *ExecStats) Merge(o *ExecStats) {
	if o == nil {
		return
	}
	s.InterpSteps += o.InterpSteps
	s.CompiledSteps += o.CompiledSteps
	for len(s.CompilationsByTier) < len(o.CompilationsByTier) {
		s.CompilationsByTier = append(s.CompilationsByTier, 0)
	}
	for i, n := range o.CompilationsByTier {
		s.CompilationsByTier[i] += n
	}
	s.OSRCompilations += o.OSRCompilations
	s.FailedCompilations += o.FailedCompilations
	s.UncommonTraps += o.UncommonTraps
	s.Deopts += o.Deopts
	for k, n := range o.DeoptsByReason {
		if s.DeoptsByReason == nil {
			s.DeoptsByReason = map[string]int64{}
		}
		s.DeoptsByReason[k] += n
	}
	s.GCCycles += o.GCCycles
	if o.PeakHeapWords > s.PeakHeapWords {
		s.PeakHeapWords = o.PeakHeapWords
	}
	for k, n := range o.OptsByPass {
		if s.OptsByPass == nil {
			s.OptsByPass = map[string]int64{}
		}
		s.OptsByPass[k] += n
	}
	s.CompileNanos += o.CompileNanos
}

// recordCompile accounts one successful compilation in stats.
func (s *ExecStats) recordCompile(code CompiledCode, osr bool) {
	tier := code.Tier()
	for len(s.CompilationsByTier) < tier {
		s.CompilationsByTier = append(s.CompilationsByTier, 0)
	}
	if tier >= 1 {
		s.CompilationsByTier[tier-1]++
	}
	if osr {
		s.OSRCompilations++
	}
	if p, ok := code.(CompileStatsProvider); ok {
		if cs := p.CompileStats(); cs != nil {
			for pass, n := range cs.OptsByPass {
				if n == 0 {
					continue
				}
				if s.OptsByPass == nil {
					s.OptsByPass = map[string]int64{}
				}
				s.OptsByPass[pass] += n
			}
			s.CompileNanos += cs.Nanos
		}
	}
}

// recordDeopt accounts one uncommon-trap deoptimization.
func (s *ExecStats) recordDeopt(reason string) {
	s.UncommonTraps++
	s.Deopts++
	if s.DeoptsByReason == nil {
		s.DeoptsByReason = map[string]int64{}
	}
	s.DeoptsByReason[reason]++
}
