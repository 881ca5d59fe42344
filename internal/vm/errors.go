// Package vm implements the language virtual machine under test: a
// bytecode interpreter with profiling counters, a tier controller with
// configurable compilation thresholds (the Z_1..Z_N of Definition 3.1),
// on-stack replacement, uncommon-trap deoptimization, a mark-sweep
// garbage collector, and a JIT-trace recorder that captures temperature
// vectors (Definition 3.2). Back-edge counters and the branch profile
// come from the interpreter alone: compiled code feeds neither, and a
// compile reads the live profile.
//
// The actual JIT compilers live in internal/jit and are plugged in via
// the JITCompiler interface, so the VM itself stays compiler-agnostic
// (and can run pure interpretation when no compiler is configured).
package vm

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"artemis/internal/lang/ast"
)

// TrapKind classifies program-level runtime errors. These are
// deterministic, observable program behaviour (the analogue of an
// uncaught Java exception) and therefore part of the comparable output.
type TrapKind int

const (
	TrapNone TrapKind = iota
	TrapDivByZero
	TrapIndexOutOfBounds
	TrapNegativeArraySize
	TrapOutOfMemory
	TrapStackOverflow
)

var trapNames = [...]string{
	"", "ArithmeticException", "ArrayIndexOutOfBoundsException",
	"NegativeArraySizeException", "OutOfMemoryError", "StackOverflowError",
}

func (k TrapKind) String() string {
	if k < 0 || int(k) >= len(trapNames) {
		return "InternalTimeout"
	}
	return trapNames[k]
}

// RuntimeError is a program-level runtime error.
type RuntimeError struct {
	Kind TrapKind
	Msg  string
}

func (e *RuntimeError) Error() string {
	if e.Msg == "" {
		return e.Kind.String()
	}
	return e.Kind.String() + ": " + e.Msg
}

// TermKind classifies how a program run ended.
type TermKind int

const (
	// TermNormal: main returned.
	TermNormal TermKind = iota
	// TermException: deterministic program-level error (part of
	// observable behaviour, like an uncaught Java exception).
	TermException
	// TermCrash: the VM itself failed — a JIT compiler assertion, a
	// fault executing compiled code, or GC-detected heap corruption.
	// Never correct behaviour.
	TermCrash
	// TermTimeout: the step budget was exhausted.
	TermTimeout
	// TermStopped: the run was abandoned through Config.Stop.
	TermStopped
)

var termNames = [...]string{"normal", "exception", "crash", "timeout", "stopped"}

func (k TermKind) String() string { return termNames[k] }

// Conclusive reports whether the run ended on its own: normally, by an
// exception or by a crash. A timed-out or stopped run says nothing
// about the program, so no comparison or classifier may count it.
func (o *Output) Conclusive() bool { return o.Term != TermTimeout && o.Term != TermStopped }

// Output is a program run's observable result. Printed lines beyond
// the first maxOutputLines are folded into the rolling hash only, so
// memory use is bounded while comparisons stay exact.
type Output struct {
	Lines  []string // the first maxOutputLines printed lines
	NLines int      // total printed lines
	hash   uint64
	Term   TermKind
	Detail string // exception text, crash reason, ...
	Steps  int64  // abstract interpreter steps consumed
}

func newOutput() *Output {
	return &Output{hash: fnv.New64a().Sum64()}
}

func (o *Output) addLine(s string) {
	if len(o.Lines) < maxOutputLines {
		o.Lines = append(o.Lines, s)
	}
	o.NLines++
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(o.hash >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(s))
	o.hash = h.Sum64()
}

// Hash returns a digest of the full print stream.
func (o *Output) Hash() uint64 { return o.hash }

// Key returns a comparable summary of observable behaviour: the full
// print stream digest plus the termination kind and detail. Two runs of
// semantically equivalent programs on a correct VM must have equal
// Keys (unless either timed out).
func (o *Output) Key() string {
	return fmt.Sprintf("%s|%s|%d|%016x", o.Term, o.Detail, o.NLines, o.hash)
}

// Equivalent reports whether two outputs are observably equal.
// Inconclusive runs are never equivalent to anything.
func (o *Output) Equivalent(p *Output) bool {
	if !o.Conclusive() || !p.Conclusive() {
		return false
	}
	return o.Key() == p.Key()
}

// formatValue renders a printed value the way the interpreter, both
// JIT tiers, and the test oracle must agree on.
func formatValue(kind ast.Kind, v int64) string {
	switch kind {
	case ast.KindBoolean:
		if v != 0 {
			return "true"
		}
		return "false"
	case ast.KindInt:
		return strconv.FormatInt(int64(int32(v)), 10)
	default:
		return strconv.FormatInt(v, 10)
	}
}
