package vm

import (
	"fmt"
	"sync/atomic"

	"artemis/internal/bytecode"
	"artemis/internal/lang/ast"
)

// Config parameterizes a VM instance. Profiles (internal/profiles)
// provide ready-made configs that mimic HotSpot-, OpenJ9-, and
// ART-like tier setups.
type Config struct {
	// EntryThresholds are the method-counter compilation thresholds
	// Z_1..Z_N (Definition 3.1). Empty means interpret-only.
	EntryThresholds []int64
	// OSRThresholds are back-edge thresholds per tier (same length as
	// EntryThresholds).
	OSRThresholds []int64

	// JIT is the compiler back end; nil disables compilation.
	JIT JITCompiler
	// Policy overrides the default counter policy when non-nil.
	Policy Policy

	// HeapWords bounds the array heap payload (default 1<<20 words).
	HeapWords int64
	// GCInterval collects every this many allocations (default 256).
	GCInterval int64
	// StepLimit bounds abstract execution steps (default 200M),
	// standing in for the paper's 2-minute wall-clock cutoff.
	StepLimit int64

	// RecordTrace enables JIT-trace (temperature vector) recording.
	RecordTrace bool
	// CollectStats enables ExecStats collection (Result.Stats). The
	// disabled path costs one nil check per compilation/deopt/GC event
	// and nothing per interpreted step.
	CollectStats bool

	// Scratch, when non-nil, supplies reusable per-worker memory
	// (frame arena, heap backing, per-method state). It must not be
	// shared between concurrently running VMs. Purely a performance
	// knob: results are byte-identical with or without it.
	Scratch *Scratch

	// Stop, when non-nil, lets another goroutine abandon the run: once
	// it is set, the run ends with TermStopped within StopPoll steps.
	// The flag is read only on the step-limit slow path (see
	// checkpoint), so it costs the execution loops nothing and changes
	// no step count.
	Stop *atomic.Bool
}

// StopPoll is how many steps a run with a Config.Stop flag executes
// between two reads of the flag.
const StopPoll = 16384

const (
	// maxDepth bounds the call stack.
	maxDepth = 400
	// deoptLimit disables speculation for a method after this many
	// deopts.
	deoptLimit = 4
	// traceLimit caps the temperature vectors a JIT trace retains; its
	// key and MaxTemp still cover every call.
	traceLimit = 4096
	// maxOutputLines caps the print lines an Output retains; its
	// rolling hash still covers every line.
	maxOutputLines = 256
)

func (c Config) withDefaults() Config {
	if c.HeapWords == 0 {
		c.HeapWords = 1 << 20
	}
	if c.GCInterval == 0 {
		c.GCInterval = 256
	}
	if c.StepLimit == 0 {
		c.StepLimit = 200_000_000
	}
	return c
}

// maxTiers bounds the tier index space of the per-method code caches.
// Real tier numbers come from threshold vectors (at most 3 entries in
// every profile) and are clamped to JITCompiler.MaxTier, so 8 is far
// above anything reachable.
const maxTiers = 8

// MethodState is the VM's per-method runtime state: counters,
// profiling data, and compiled code caches. The caches are dense
// arrays/slices rather than maps: tier and loop-id spaces are tiny and
// known up front, and OnEntry/OnBackEdge consult them on every call
// and back edge.
type MethodState struct {
	Name     string
	Index    int
	Counters Counters
	Profile  *MethodProfile

	compiled    [maxTiers]CompiledCode // tier -> regular entry
	hiTier      int                    // highest tier with cached code (0 = none)
	failedTiers [maxTiers]bool         // tiers that failed to compile (non-crash)
	osr         []CompiledCode         // loopID -> OSR entry (best tier)
	osrTiers    []int                  // loopID -> tier of cached OSR code

	DeoptCount   int
	Compilations int64
	specDisabled bool
}

// HighestTier returns the highest tier with cached compiled code
// (0 = none).
func (st *MethodState) HighestTier() int { return st.hiTier }

func (st *MethodState) best() CompiledCode {
	if st.hiTier > 0 {
		return st.compiled[st.hiTier]
	}
	return nil
}

func (st *MethodState) osrTier(loopID int) int { return st.osrTiers[loopID] }

// osrCode returns the cached OSR entry for loopID (nil when none was
// compiled yet, or when the cached compilation failed benignly).
func (st *MethodState) osrCode(loopID int) CompiledCode { return st.osr[loopID] }

// Result is what Run returns: observable output plus bookkeeping that
// the harness and benchmarks consume.
type Result struct {
	Output *Output
	Trace  *JITTrace  // nil unless Config.RecordTrace
	Stats  *ExecStats // nil unless Config.CollectStats

	Compilations int64 // total JIT compilations performed
	Deopts       int64 // total uncommon-trap deoptimizations
	OSREntries   int64 // OSR transitions interpreter -> compiled
	GCRuns       int64
	Steps        int64
}

// VM executes one program run. A VM is single-use: create, Run, read
// results.
type VM struct {
	cfg    Config
	prog   *bytecode.Program
	fields []int64
	heap   *Heap
	out    *Output
	trace  *JITTrace
	stats  *ExecStats

	methods []*MethodState
	policy  Policy

	steps         int64
	compiledSteps int64 // subset of steps charged via Env.Step
	// checkAt is the step count past which the execution loops call
	// checkpoint: Config.StepLimit, or the next poll of Config.Stop.
	checkAt int64
	depth   int

	roots   []func(yield func(int64)) // active compiled-frame root scanners
	popRoot func()                    // removes the newest root scanner
	frames  []interpFrame             // active interpreter frames (GC roots)

	compilations int64
	deopts       int64
	osrEntries   int64

	arena   *frameArena // interpreter locals/stack allocator
	scratch *Scratch    // nil unless Config.Scratch was set
}

// New creates a VM for prog.
func New(cfg Config, prog *bytecode.Program) *VM {
	cfg = cfg.withDefaults()
	vm := &VM{
		cfg:     cfg,
		prog:    prog,
		out:     newOutput(),
		checkAt: cfg.StepLimit,
	}
	if cfg.Stop != nil {
		vm.checkAt = min(StopPoll, cfg.StepLimit)
	}
	if cfg.RecordTrace {
		vm.trace = newJITTrace(traceLimit)
	}
	if cfg.CollectStats {
		vm.stats = &ExecStats{}
	}
	if s := cfg.Scratch; s != nil {
		vm.scratch = s
		vm.arena = &s.arena
		vm.arena.reset()
		vm.fields = s.fieldsFor(len(prog.Fields))
		vm.heap = s.heapFor(cfg.HeapWords)
		vm.frames = s.frames[:0]
		vm.methods = s.statesFor(prog)
	} else {
		vm.arena = &frameArena{}
		vm.fields = make([]int64, len(prog.Fields))
		vm.heap = NewHeap(cfg.HeapWords)
		vm.methods = make([]*MethodState, len(prog.Methods))
		for i, m := range prog.Methods {
			st := &MethodState{}
			resetMethodState(st, m, i)
			vm.methods[i] = st
		}
	}
	vm.policy = cfg.Policy
	if vm.policy == nil {
		vm.policy = &CounterPolicy{EntryThresholds: cfg.EntryThresholds, OSRThresholds: cfg.OSRThresholds}
	}
	return vm
}

// Run executes a compiled program and returns a fresh Config's result.
// Convenience wrapper over New + (*VM).Run.
func Run(cfg Config, prog *bytecode.Program) *Result {
	return New(cfg, prog).Run()
}

// Run executes the program to completion.
func (vm *VM) Run() *Result {
	func() {
		// Any panic below is a VM-internal fault (the analogue of a
		// JVM SIGSEGV). Injected bug code is allowed to panic; a
		// correct configuration must never reach this.
		defer func() {
			if r := recover(); r != nil {
				vm.out.Term = TermCrash
				vm.out.Detail = fmt.Sprintf("fatal error: %v", r)
			}
		}()
		vm.runMain()
	}()
	res := &Result{
		Output:       vm.out,
		Trace:        vm.trace,
		Compilations: vm.compilations,
		Deopts:       vm.deopts,
		OSREntries:   vm.osrEntries,
		GCRuns:       vm.heap.Collections,
		Steps:        vm.steps,
	}
	if vm.stats != nil {
		// Split the abstract step budget by execution mode: Env.Step
		// is the only path compiled code charges through, so the
		// interpreter share is the remainder — no per-step accounting
		// is ever needed on the interpreter hot loop.
		vm.stats.CompiledSteps = vm.compiledSteps
		vm.stats.InterpSteps = vm.steps - vm.compiledSteps
		vm.stats.GCCycles = vm.heap.Collections
		vm.stats.PeakHeapWords = vm.heap.PeakWords()
		res.Stats = vm.stats
	}
	vm.out.Steps = vm.steps
	if vm.scratch != nil {
		// Hand grown frame capacity back for the next run.
		vm.scratch.frames = vm.frames[:0]
	}
	return res
}

func (vm *VM) runMain() {
	// Default array fields to empty arrays (the language has no null).
	for i, f := range vm.prog.Fields {
		if f.Type.IsArray() {
			vm.fields[i] = vm.heap.Alloc(f.Type.Elem, 0)
		}
	}
	// <clinit> bypasses the policy and the invocation counter: it is
	// never compiled.
	if ci := vm.prog.ClinitIndex; ci >= 0 {
		if _, uw := vm.interpret(vm.methods[ci], nil, nil); uw != nil {
			vm.finish(uw)
			return
		}
	}
	_, uw := vm.CallMethod(vm.prog.MainIndex, nil)
	vm.finish(uw)
}

func (vm *VM) finish(uw *Unwind) {
	switch {
	case uw == nil:
		vm.out.Term = TermNormal
	case uw.Crash != "":
		vm.out.Term = TermCrash
		vm.out.Detail = uw.Crash
	case uw.Err != nil && uw.Err.Kind == trapTimeout:
		vm.out.Term = TermTimeout
		vm.out.Detail = "step limit exceeded"
	case uw.Err != nil && uw.Err.Kind == trapStopped:
		vm.out.Term = TermStopped
		vm.out.Detail = "stopped"
	case uw.Err != nil:
		vm.out.Term = TermException
		vm.out.Detail = uw.Err.Error()
	}
}

// trapTimeout and trapStopped are internal pseudo-traps used to thread
// step-limit exhaustion and Config.Stop through the normal unwind path.
const (
	trapTimeout TrapKind = -1
	trapStopped TrapKind = -2
)

// checkpoint is the execution loops' slow path, taken once the step
// count passes checkAt. Without a Stop flag checkAt is StepLimit, so
// this only ends the run. With one, checkAt steps through the budget
// StopPoll steps at a time and each pass reads the flag: the timeout
// still fires at exactly the step it would without a flag. It is kept
// out of line so the interpreter loop carries only the comparison.
//
//go:noinline
func (vm *VM) checkpoint() *Unwind {
	if vm.steps > vm.cfg.StepLimit {
		return &Unwind{Err: &RuntimeError{Kind: trapTimeout}}
	}
	if vm.cfg.Stop != nil && vm.cfg.Stop.Load() {
		return &Unwind{Err: &RuntimeError{Kind: trapStopped}}
	}
	vm.checkAt = min(vm.steps+StopPoll, vm.cfg.StepLimit)
	return nil
}

// MethodStateByName exposes per-method state for tests and tools.
func (vm *VM) MethodStateByName(name string) *MethodState {
	for _, st := range vm.methods {
		if st.Name == name {
			return st
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

// CallMethod dispatches one method call, deciding between interpreter
// and compiled code via the policy. It implements Env for compiled
// callers.
func (vm *VM) CallMethod(mi int, args []int64) (int64, *Unwind) {
	if vm.depth >= maxDepth {
		return 0, &Unwind{Err: &RuntimeError{Kind: TrapStackOverflow}}
	}
	st := vm.methods[mi]
	st.Counters.Invocations++

	var tv *TempVector
	if vm.trace != nil {
		tv = &TempVector{Method: st.Name, CallIndex: st.Counters.Invocations}
	}

	dec := vm.policy.OnEntry(st)
	var code CompiledCode
	switch dec.Action {
	case ActInterpret:
		code = nil
	case ActUseCompiled:
		code = st.best()
	case ActCompile:
		c, uw := vm.ensureCompiled(st, dec.Tier)
		if uw != nil {
			return 0, uw
		}
		code = c
		if code == nil {
			code = st.best()
		}
	}

	vm.depth++
	defer func() { vm.depth-- }()

	var ret int64
	var uw *Unwind
	if code != nil {
		ret, uw = vm.runCompiled(st, code, args, tv)
	} else {
		if tv != nil {
			tv.Temps = append(tv.Temps, 0)
		}
		ret, uw = vm.interpret(st, args, tv)
	}
	if tv != nil && vm.trace != nil {
		vm.trace.add(*tv)
	}
	return ret, uw
}

// interpret runs a fresh activation of st in the interpreter, its
// locals zeroed and then seeded with args.
func (vm *VM) interpret(st *MethodState, args []int64, tv *TempVector) (int64, *Unwind) {
	mark := vm.arena.mark()
	locals := vm.arena.alloc(len(vm.prog.Methods[st.Index].Locals))
	clear(locals)
	copy(locals, args)
	ret, uw := vm.interpLoop(st, 0, locals, nil, tv)
	vm.arena.release(mark)
	return ret, uw
}

// ensureCompiled returns st's regular entry at tier, compiling it if
// it is not cached. Returns (nil, nil) when compilation failed benignly
// (caller falls back).
func (vm *VM) ensureCompiled(st *MethodState, tier int) (CompiledCode, *Unwind) {
	if vm.cfg.JIT == nil {
		return nil, nil
	}
	tier = min(tier, vm.cfg.JIT.MaxTier(), maxTiers-1)
	if c := st.compiled[tier]; c != nil {
		return c, nil
	}
	if st.failedTiers[tier] {
		return nil, nil
	}
	code, uw := vm.compile(st, tier, -1)
	if uw != nil {
		return nil, uw
	}
	if code == nil {
		st.failedTiers[tier] = true
		return nil, nil
	}
	st.compiled[tier] = code
	if tier > st.hiTier {
		st.hiTier = tier
	}
	return code, nil
}

// ensureOSR returns the OSR entry for (method, loop) at tier,
// compiling it unless one of at least that tier is cached.
func (vm *VM) ensureOSR(st *MethodState, loopID, tier int) (CompiledCode, *Unwind) {
	if vm.cfg.JIT == nil {
		return nil, nil
	}
	tier = min(tier, vm.cfg.JIT.MaxTier(), maxTiers-1)
	if st.osrTiers[loopID] >= tier {
		return st.osr[loopID], nil
	}
	code, uw := vm.compile(st, tier, loopID)
	if uw != nil {
		return nil, uw
	}
	// A benign failure caches nil at this tier so it is not retried.
	st.osrTiers[loopID] = tier
	st.osr[loopID] = code
	return code, nil
}

// compile runs one JIT compilation of st at tier: a regular entry when
// loopID is -1, otherwise an OSR entry at that loop's header. It
// returns nil code when compilation failed benignly.
func (vm *VM) compile(st *MethodState, tier, loopID int) (CompiledCode, *Unwind) {
	code, cerr := vm.cfg.JIT.Compile(CompileRequest{
		Prog:        vm.prog,
		MethodIndex: st.Index,
		Tier:        tier,
		OSRLoopID:   loopID,
		Profile:     st.Profile,
		Speculate:   !st.specDisabled,
		Recompiles:  st.Compilations,
	})
	vm.compilations++
	st.Compilations++
	osr := loopID >= 0
	if cerr != nil {
		if !cerr.Crash {
			if vm.stats != nil {
				vm.stats.FailedCompilations++
			}
			return nil, nil
		}
		// A compiler assertion failure takes the whole VM down, like a
		// fatal error in a JVM compiler thread.
		if osr {
			return nil, &Unwind{Crash: fmt.Sprintf("JIT compiler crash (OSR tier %d, method %s, loop %d): %s", tier, st.Name, loopID, cerr.Msg)}
		}
		return nil, &Unwind{Crash: fmt.Sprintf("JIT compiler crash (tier %d, method %s): %s", tier, st.Name, cerr.Msg)}
	}
	if vm.stats != nil {
		vm.stats.recordCompile(code, osr)
	}
	return code, nil
}

// runCompiled executes compiled code, a regular entry given the call's
// arguments or an OSR entry given the interpreted frame's locals, and
// handles deopt by resuming interpretation.
func (vm *VM) runCompiled(st *MethodState, code CompiledCode, args []int64, tv *TempVector) (int64, *Unwind) {
	if tv != nil {
		tv.Temps = append(tv.Temps, code.Tier())
	}
	res := code.Run(vm, args)
	switch res.Kind {
	case ExecReturn:
		return res.Value, nil
	case ExecUnwind:
		return 0, res.Unwind
	case ExecDeopt:
		return vm.handleDeopt(st, res.Deopt, tv)
	}
	panic("vm: bad ExecResult kind")
}

// handleDeopt processes an uncommon trap: invalidate the speculative
// code, cool the method down (Definition 3.2: traps cool temperature
// to t0), and resume in the interpreter at the trap's frame state.
func (vm *VM) handleDeopt(st *MethodState, d *Deopt, tv *TempVector) (int64, *Unwind) {
	vm.deopts++
	st.DeoptCount++
	if vm.stats != nil {
		vm.stats.recordDeopt(d.Reason)
	}
	if st.DeoptCount >= deoptLimit {
		st.specDisabled = true
	}
	// Throw away every compiled version of the method: the profile it
	// was built from was wrong. Recompilation will happen naturally
	// when thresholds are crossed again, with a corrected profile.
	// (failedTiers is deliberately kept: benign compile failures are
	// permanent for the run.)
	st.compiled = [maxTiers]CompiledCode{}
	st.hiTier = 0
	clear(st.osr)
	clear(st.osrTiers)
	if tv != nil {
		tv.Temps = append(tv.Temps, 0)
	}
	return vm.interpLoop(st, d.PC, d.Locals, d.Stack, tv)
}

// ---------------------------------------------------------------------------
// Env implementation (runtime services for compiled code)
// ---------------------------------------------------------------------------

var _ Env = (*VM)(nil)

// GetField implements Env.
func (vm *VM) GetField(i int) int64 { return vm.fields[i] }

// SetField implements Env.
func (vm *VM) SetField(i int, v int64) { vm.fields[i] = v }

// Print implements Env. The value is formatted into a stack buffer
// (an int64 prints in at most 20 bytes), so a line past the first
// maxOutputLines allocates nothing.
func (vm *VM) Print(kind ast.Kind, v int64) {
	var buf [20]byte
	vm.out.addLine(appendValue(buf[:0], kind, v))
}

// Step implements Env: consume abstract execution budget. Only
// compiled code charges through here (the interpreter counts inline),
// which is what lets ExecStats split steps by execution mode for free.
func (vm *VM) Step(n int64) *Unwind {
	vm.steps += n
	vm.compiledSteps += n
	if vm.steps > vm.checkAt {
		return vm.checkpoint()
	}
	return nil
}

// NewArray implements Env: allocate, collecting (and checking the
// heap) when needed.
func (vm *VM) NewArray(elem ast.Kind, n int64) (int64, *RuntimeError) {
	if n < 0 {
		return 0, &RuntimeError{Kind: TrapNegativeArraySize, Msg: fmt.Sprintf("%d", n)}
	}
	if vm.heap.WouldExceed(n) || vm.heap.AllocsSinceGC() >= vm.cfg.GCInterval {
		if err := vm.collect(); err != nil {
			// Heap corruption: surface as a crash via panic, caught at
			// the Run boundary. (Returning a RuntimeError would make
			// it look like program behaviour.)
			panic(err.Error())
		}
		if vm.heap.WouldExceed(n) {
			return 0, &RuntimeError{Kind: TrapOutOfMemory}
		}
	}
	return vm.heap.Alloc(elem, n), nil
}

func (vm *VM) collect() error {
	return vm.heap.Collect(func(yield func(int64)) {
		for _, v := range vm.fields {
			yield(v)
		}
		for i := range vm.frames {
			f := &vm.frames[i]
			for _, v := range f.locals {
				yield(v)
			}
			for _, v := range f.stack[:f.sp] {
				yield(v)
			}
		}
		for _, scan := range vm.roots {
			scan(yield)
		}
	})
}

// ArrayLoad implements Env.
func (vm *VM) ArrayLoad(ref, idx int64) (int64, *RuntimeError) {
	a := vm.heap.Get(ref)
	if a == nil {
		panic(fmt.Sprintf("invalid array handle %d", ref))
	}
	if idx < 0 || idx >= a.Len() {
		return 0, &RuntimeError{Kind: TrapIndexOutOfBounds, Msg: fmt.Sprintf("index %d, length %d", idx, a.Len())}
	}
	return a.Data[idx], nil
}

// ArrayStore implements Env.
func (vm *VM) ArrayStore(ref, idx, val int64) *RuntimeError {
	a := vm.heap.Get(ref)
	if a == nil {
		panic(fmt.Sprintf("invalid array handle %d", ref))
	}
	if idx < 0 || idx >= a.Len() {
		return &RuntimeError{Kind: TrapIndexOutOfBounds, Msg: fmt.Sprintf("index %d, length %d", idx, a.Len())}
	}
	a.Data[idx] = truncate(a.Elem, val)
	return nil
}

// ArrayStoreRaw implements Env; see the interface comment — only
// reachable through injected compiler bugs.
func (vm *VM) ArrayStoreRaw(ref, idx, val int64) {
	a := vm.heap.Get(ref)
	if a == nil {
		panic(fmt.Sprintf("invalid array handle %d", ref))
	}
	if idx < 0 || idx >= int64(len(a.Data)) {
		// Even the buggy store cannot escape the Go slice; clamp to
		// the canary word to model adjacent-object corruption.
		idx = int64(len(a.Data)) - 1
	}
	a.Data[idx] = truncate(a.Elem, val)
}

// ArrayLen implements Env.
func (vm *VM) ArrayLen(ref int64) (int64, *RuntimeError) {
	a := vm.heap.Get(ref)
	if a == nil {
		panic(fmt.Sprintf("invalid array handle %d", ref))
	}
	return a.Len(), nil
}

// RegisterRoots adds a frame root scanner for the GC. Compiled code
// registers its register file and spill slots here on entry and calls
// the returned function on exit, so scanners nest LIFO like the frames
// they describe. The function removes the newest scanner and is the
// same one for every call, so registering allocates nothing once the
// scanner stack has reached its deepest nesting.
func (vm *VM) RegisterRoots(scan func(yield func(int64))) func() {
	vm.roots = append(vm.roots, scan)
	if vm.popRoot == nil {
		vm.popRoot = func() { vm.roots = vm.roots[:len(vm.roots)-1] }
	}
	return vm.popRoot
}

// truncate stores a value with the element width of an array.
func truncate(elem ast.Kind, v int64) int64 {
	switch elem {
	case ast.KindInt:
		return int64(int32(v))
	case ast.KindBoolean:
		return v & 1
	default:
		return v
	}
}
