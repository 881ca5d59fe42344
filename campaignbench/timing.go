package main

import (
	"time"

	"artemis/internal/lang/ast"
	"artemis/internal/vm"
)

// layer is a bucket of self time in the traced replica. Each module
// of the repository is one layer; vm time is split into the top-level
// run (layerVM) and calls that compiled code re-enters the VM for
// (layerEnvCall), whose self time is interpretation as well.
type layer int

const (
	layerHarness layer = iota // replica glue: seed loop, signatures, corpus bookkeeping
	layerGenerate
	layerAnalyze
	layerCompile
	layerCompileDelta
	layerMutate
	layerVM
	layerEnvCall
	layerJITCompile
	layerJITExec
	layerReduce
	layerKeep
	layerBlame
	numLayers
)

var layerNames = [numLayers]string{
	"harness", "fuzz.generate", "sem.analyze", "bytecode.compile", "bytecode.compile_delta",
	"jonm.mutate", "vm.run", "vm.env_call", "jit.compile", "jit.exec", "reduce", "reduce.keep", "blame",
}

// span is one traced interval. Spans of one round share the seed ids
// of the work they cover; Parent indexes the enclosing span (-1 at the
// top). The vm.run fields accumulate per-call executor and compiler
// time so the hot path records no span per compiled call.
type span struct {
	Name   string `json:"name"`
	Seed   int64  `json:"seed"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`

	Role      string `json:"role,omitempty"`
	Term      string `json:"term,omitempty"`
	Steps     int64  `json:"steps,omitempty"`
	ExecSelf  int64  `json:"exec_self_ns,omitempty"`
	ExecCalls int64  `json:"exec_calls,omitempty"`
	CompileNs int64  `json:"compile_ns,omitempty"`

	Method int  `json:"method,omitempty"`
	Tier   int  `json:"tier,omitempty"`
	OSR    bool `json:"osr,omitempty"`
	Failed bool `json:"failed,omitempty"`
	Instrs int  `json:"instrs,omitempty"`

	Kept    bool   `json:"kept,omitempty"`
	Verdict string `json:"verdict,omitempty"`
}

// runCounters accumulates executor and compiler work inside one vm.Run.
type runCounters struct {
	execSelf, execCalls, envCalls           int64
	compileNs, compileTier2Ns, compileCalls int64
	compileFailed, codeInstrs               int64
}

type frame struct {
	layer        layer
	start, child int64
}

// tracer measures one traced round from outside the program: it times
// calls into each layer's public functions, keeps a stack of open
// frames to split self time from callee time, and keeps spans in
// memory. It is single-goroutine, like the replica that drives it.
type tracer struct {
	epoch  time.Time
	stack  []frame
	self   [numLayers]int64
	spans  []span
	open   []int // indexes of open spans, innermost last
	seedID int64
	run    runCounters

	envOf vm.Env
	env   *timedEnv
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) push(l layer) int64 {
	now := t.now()
	t.stack = append(t.stack, frame{layer: l, start: now})
	return now
}

// pop closes the innermost frame and returns its duration and self time.
func (t *tracer) pop() (dur, self int64) {
	now := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur = now - f.start
	self = dur - f.child
	t.self[f.layer] += self
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += dur
	}
	return dur, self
}

// timed runs f as one call into layer l.
func timed[T any](t *tracer, l layer, f func() T) T {
	t.push(l)
	defer t.pop()
	return f()
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Seed: t.seedID, Parent: parent, Start: t.now()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i and returns it for the caller to annotate.
func (t *tracer) end(i int) *span {
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.Dur = t.now() - s.Start
	return s
}

// leaf records a closed span under the innermost open one.
func (t *tracer) leaf(s span) {
	s.Seed = t.seedID
	s.Parent = -1
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	t.spans = append(t.spans, s)
}

// wrapEnv returns the timing Env for env, reusing it across the calls
// of one VM.
func (t *tracer) wrapEnv(env vm.Env) vm.Env {
	if t.envOf != env {
		t.envOf = env
		t.env = &timedEnv{env: env, t: t}
	}
	return t.env
}

// timedJIT wraps a vm.JITCompiler: every compilation is a jit.compile
// span, and every compiled method comes back as a timedCode.
type timedJIT struct {
	inner vm.JITCompiler
	t     *tracer
}

func (j *timedJIT) MaxTier() int { return j.inner.MaxTier() }

func (j *timedJIT) Compile(req vm.CompileRequest) (code vm.CompiledCode, cerr *vm.CompileError) {
	t := j.t
	start := t.push(layerJITCompile)
	defer func() {
		dur, _ := t.pop()
		tier := req.Tier
		if max := j.inner.MaxTier(); tier > max {
			tier = max
		}
		s := span{Name: "jit.compile", Start: start, Dur: dur, Method: req.MethodIndex, Tier: tier, OSR: req.OSRLoopID >= 0}
		t.run.compileCalls++
		t.run.compileNs += dur
		if tier >= 2 {
			t.run.compileTier2Ns += dur
		}
		if cerr != nil || code == nil {
			t.run.compileFailed++
			s.Failed = true
		} else {
			s.Instrs = code.Size()
			t.run.codeInstrs += int64(s.Instrs)
		}
		t.leaf(s)
	}()
	code, cerr = j.inner.Compile(req)
	if cerr == nil && code != nil {
		code = &timedCode{CompiledCode: code, t: t}
	}
	return code, cerr
}

// timedCode wraps one compiled method. Its self time excludes the VM
// calls the code makes through the Env, which count as interpretation
// (or as nested compiled code) of the callee.
type timedCode struct {
	vm.CompiledCode
	t *tracer
}

func (c *timedCode) Run(env vm.Env, args []int64) vm.ExecResult {
	t := c.t
	t.push(layerJITExec)
	defer func() {
		_, self := t.pop()
		t.run.execSelf += self
	}()
	t.run.execCalls++
	return c.CompiledCode.Run(t.wrapEnv(env), args)
}

// CompileStats forwards the wrapped code's per-pass statistics, so the
// VM's ExecStats are the same with and without the wrapper.
func (c *timedCode) CompileStats() *vm.CompileStats {
	if p, ok := c.CompiledCode.(vm.CompileStatsProvider); ok {
		return p.CompileStats()
	}
	return nil
}

// timedEnv counts the runtime calls compiled code makes and times the
// calls that re-enter VM dispatch.
type timedEnv struct {
	env vm.Env
	t   *tracer
}

func (e *timedEnv) GetField(i int) int64 {
	e.t.run.envCalls++
	return e.env.GetField(i)
}

func (e *timedEnv) SetField(i int, v int64) {
	e.t.run.envCalls++
	e.env.SetField(i, v)
}

func (e *timedEnv) NewArray(elem ast.Kind, n int64) (int64, *vm.RuntimeError) {
	e.t.run.envCalls++
	return e.env.NewArray(elem, n)
}

func (e *timedEnv) ArrayLoad(ref, idx int64) (int64, *vm.RuntimeError) {
	e.t.run.envCalls++
	return e.env.ArrayLoad(ref, idx)
}

func (e *timedEnv) ArrayStore(ref, idx, val int64) *vm.RuntimeError {
	e.t.run.envCalls++
	return e.env.ArrayStore(ref, idx, val)
}

func (e *timedEnv) ArrayStoreRaw(ref, idx, val int64) {
	e.t.run.envCalls++
	e.env.ArrayStoreRaw(ref, idx, val)
}

func (e *timedEnv) ArrayLen(ref int64) (int64, *vm.RuntimeError) {
	e.t.run.envCalls++
	return e.env.ArrayLen(ref)
}

func (e *timedEnv) Print(kind ast.Kind, v int64) {
	e.t.run.envCalls++
	e.env.Print(kind, v)
}

func (e *timedEnv) CallMethod(method int, args []int64) (int64, *vm.Unwind) {
	e.t.run.envCalls++
	e.t.push(layerEnvCall)
	defer e.t.pop()
	return e.env.CallMethod(method, args)
}

func (e *timedEnv) Step(n int64) *vm.Unwind {
	e.t.run.envCalls++
	return e.env.Step(n)
}

func (e *timedEnv) RegisterRoots(scan func(yield func(v int64))) func() {
	e.t.run.envCalls++
	return e.env.RegisterRoots(scan)
}
