package vm

import (
	"artemis/internal/bytecode"
	"artemis/internal/lang/ast"
)

// Env is the runtime interface compiled code uses to talk to the VM:
// field access, heap operations, printing, and re-entering the VM for
// method calls. The VM itself implements Env.
type Env interface {
	GetField(i int) int64
	SetField(i int, v int64)
	NewArray(elem ast.Kind, n int64) (int64, *RuntimeError)
	ArrayLoad(ref, idx int64) (int64, *RuntimeError)
	ArrayStore(ref, idx, val int64) *RuntimeError
	// ArrayStoreRaw stores without any bounds check. It exists only so
	// injected codegen bugs can corrupt the heap the way a miscompiled
	// bounds-check-eliminated store would; correct compilers never
	// emit it out of range.
	ArrayStoreRaw(ref, idx, val int64)
	ArrayLen(ref int64) (int64, *RuntimeError)
	Print(kind ast.Kind, v int64)
	// CallMethod re-enters VM dispatch for a callee. A non-nil
	// *Unwind aborts the compiled caller.
	CallMethod(method int, args []int64) (int64, *Unwind)
	// Step consumes abstract execution budget from compiled code.
	Step(n int64) *Unwind
	// RegisterRoots adds a GC root scanner for a compiled frame; the
	// returned function removes the newest scanner (call it on frame
	// exit: scanners nest LIFO like frames).
	RegisterRoots(scan func(yield func(v int64))) func()
}

// Unwind propagates a non-return exit upward through compiled frames:
// a program-level runtime error or a VM crash.
type Unwind struct {
	Err   *RuntimeError // program-level error (exception)
	Crash string        // VM-internal failure description
}

// Deopt describes an uncommon-trap exit from compiled code: the
// interpreter frame state to resume from.
type Deopt struct {
	PC     int     // bytecode pc to resume interpretation at
	Locals []int64 // reconstructed local slots
	Stack  []int64 // reconstructed operand stack
	// Reason is the trap's template, "speculation failed" for every
	// guard the compiler emits; ExecStats.DeoptsByReason keys on it.
	Reason string
}

// ExecKind discriminates compiled-code execution results.
type ExecKind int

const (
	ExecReturn ExecKind = iota
	ExecDeopt
	ExecUnwind
)

// ExecResult is the outcome of running compiled code.
type ExecResult struct {
	Kind   ExecKind
	Value  int64   // for ExecReturn of non-void methods
	Deopt  *Deopt  // for ExecDeopt
	Unwind *Unwind // for ExecUnwind
}

// CompiledCode is one compiled version of a method.
type CompiledCode interface {
	// Run executes the code. For regular entries args are the method
	// arguments; for OSR entries args are the full local-slot array at
	// the loop header.
	Run(env Env, args []int64) ExecResult
	// Tier returns the optimization level (1-based).
	Tier() int
	// Size returns the reference instruction count: the instructions
	// the step charge counts and jit.code_instrs sums, not the number
	// of packed words the executor dispatches.
	Size() int
}

// CompileRequest asks the JIT for one compiled version.
type CompileRequest struct {
	Prog        *bytecode.Program
	MethodIndex int
	Tier        int
	// OSRLoopID >= 0 requests an OSR version entered at that loop's
	// header; -1 requests a regular entry.
	OSRLoopID int
	// Profile is the method's live interpreter profile, borrowed for
	// the call: the compiler must not keep it, because interpretation
	// goes on updating it once Compile returns. May be nil (tier-1
	// compilers don't need it).
	Profile *MethodProfile
	// Speculate permits profile-guided speculative optimization with
	// uncommon traps. The VM clears it after repeated deopts.
	Speculate bool
	// Recompiles counts earlier compilations of this method (all
	// tiers), for recompilation-bookkeeping behaviour.
	Recompiles int64
}

// CompileStats describes the work one compilation performed: which
// optimization passes fired how often, and how long compilation took.
// Compiled code surfaces it through the optional CompileStatsProvider
// interface; the VM folds it into ExecStats when stats collection is
// on. OptsByPass is deterministic; Nanos is wall clock and excluded
// from deterministic exports.
type CompileStats struct {
	OptsByPass map[string]int64
	Nanos      int64
}

// CompileStatsProvider is implemented by CompiledCode values that can
// report per-compilation statistics. It is optional so simple or
// test compilers need not bother.
type CompileStatsProvider interface {
	CompileStats() *CompileStats
}

// CompileError reports a failed compilation. Compiler crashes
// (assertion failures etc., including injected bugs) are VM crashes;
// the paper observes most JIT crashes happen while compiling.
type CompileError struct {
	Crash bool
	Msg   string
}

func (e *CompileError) Error() string { return e.Msg }

// JITCompiler produces compiled code. Implementations live in
// internal/jit; the VM only sees this interface.
type JITCompiler interface {
	Compile(req CompileRequest) (CompiledCode, *CompileError)
	// MaxTier returns the highest optimization level available (N in
	// Definition 3.1).
	MaxTier() int
}
