// Package bugs catalogs the seeded JIT-compiler defects that stand in
// for the real production-JVM bugs the paper's campaigns discover
// (85 reported; Tables 1 and 2). Each bug is tagged with the JIT
// component it lives in (mirroring Table 2's component breakdown) and
// the simulated JVM profile it afflicts. The defects themselves are
// implemented inside internal/jit behind `Set.Has(id)` checks; this
// package only holds metadata and the per-profile sets.
//
// Design rules for the corpus, matching the paper's observations:
//
//   - Every bug manifests only when JIT compilation actually happens
//     (Section 4.2: "all reported bugs concern JIT compilers").
//   - Most crashes fire while *compiling* (29 of 32 HotSpot crashes),
//     a few while executing compiled code.
//   - OpenJ9's crashes concentrate in the garbage collector, caused by
//     compiled code corrupting the heap.
//   - Mis-compilations are rarer than crashes (Table 1) and latent:
//     they need specific code shapes that seed programs rarely have
//     but JoNM mutations routinely create (hot loops, pre-invoked
//     methods, speculation + deopt).
package bugs

// Kind classifies a defect's observable symptom.
type Kind int

const (
	Miscompile Kind = iota
	Crash
	Perf
)

func (k Kind) String() string {
	switch k {
	case Miscompile:
		return "mis-compilation"
	case Crash:
		return "crash"
	case Perf:
		return "performance"
	}
	return "unknown"
}

// Phase says when the defect fires.
type Phase int

const (
	// AtCompile: assertion-style failure while the JIT is compiling.
	AtCompile Phase = iota
	// AtExecute: wrong code or fault while running compiled code.
	AtExecute
	// AtGC: compiled code corrupts the heap; the crash surfaces later
	// inside the garbage collector.
	AtGC
)

// Info describes one seeded defect.
type Info struct {
	ID        string
	JVM       string // "hotspot", "openj9", "art"
	Component string // Table 2 component label
	Kind      Kind
	Phase     Phase
	Tier      int // compiler tier the defect lives in (1 or 2)
	Desc      string
}

// Catalog lists every seeded defect.
var Catalog = []Info{
	// --- HotSpot-like: method-JIT C1 (tier 1) + optimizing C2 (tier 2).
	{"hs-c1-bigmethod", "hotspot", "Inlining, C1", Crash, AtCompile, 1,
		"C1 aborts on methods over the inline-buffer budget (many params + large body)"},
	{"hs-igb-region", "hotspot", "Ideal Graph Building, C2", Crash, AtCompile, 2,
		"region-node budget assertion on switch-heavy control flow"},
	{"hs-loopopt-nest", "hotspot", "Ideal Loop Optimization, C2", Crash, AtCompile, 2,
		"assertion in loop-tree construction for >=3-deep nests containing calls"},
	{"hs-gcm-store-sink", "hotspot", "Ideal Loop Optimization, C2", Miscompile, AtExecute, 2,
		"global code motion sinks a field increment into a deeper loop on a frequency tie (JDK-8288975 replica)"},
	{"hs-gcp-fold-minint", "hotspot", "Global Constant Propagation, C2", Crash, AtCompile, 2,
		"constant folder asserts on MIN_VALUE / -1"},
	{"hs-gvn-across-store", "hotspot", "Global Value Numbering, C2", Miscompile, AtExecute, 2,
		"field loads value-numbered ignoring intervening stores"},
	{"hs-gvn-table", "hotspot", "Global Value Numbering, C2", Crash, AtCompile, 2,
		"value-number table overflow assertion on very large methods"},
	{"hs-ea-phi", "hotspot", "Escape Analysis, C2", Crash, AtCompile, 2,
		"escape analysis asserts when an allocation merges into a phi"},
	{"hs-ra-highpressure", "hotspot", "Register Allocation, C2", Miscompile, AtExecute, 2,
		"two spill slots swapped under very high register pressure"},
	{"hs-cg-ushr-wide", "hotspot", "Code Generation, C2", Miscompile, AtExecute, 2,
		"long >>> emitted with a 32-bit shift-count mask"},
	{"hs-exec-guard-stack", "hotspot", "Code Execution, C2", Crash, AtExecute, 2,
		"uncommon-trap stub faults when the deopt frame has a deep operand stack"},
	{"hs-perf-osr-storm", "hotspot", "Code Execution, C2", Perf, AtExecute, 2,
		"OSR code of later loops with multiple guards re-enters the runtime every few instructions, running far slower than the interpreter"},

	// --- OpenJ9-like: single JIT with warm/hot levels (tiers 1/2).
	{"oj-lvp-across-call", "openj9", "Local Value Propagation", Miscompile, AtExecute, 2,
		"field value forwarded across a call that clobbers it"},
	{"oj-gvp-join", "openj9", "Global Value Propagation", Crash, AtCompile, 2,
		"value propagation asserts on wide phi joins of field loads"},
	{"oj-vector-legality", "openj9", "Loop Vectorization", Crash, AtCompile, 2,
		"vectorizer legality check asserts on loops with many array stores"},
	{"oj-deopt-stale", "openj9", "De-optimization", Miscompile, AtExecute, 2,
		"guard frame states capture block-entry locals, resuming with stale values"},
	{"oj-ra-interval", "openj9", "Register Allocation", Crash, AtCompile, 2,
		"linear-scan interval table overflow"},
	{"oj-cg-switch-dense", "openj9", "Code Generation", Crash, AtCompile, 2,
		"dense-switch lowering asserts on tables with many entries"},
	{"oj-cg-l2i-skip", "openj9", "Code Generation", Miscompile, AtExecute, 2,
		"l2i after a shift treated as a no-op (missing truncation)"},
	{"oj-jitint-guard", "openj9", "Other JIT Components", Crash, AtCompile, 2,
		"JIT-interpreter transition assert for methods mixing guards and calls"},
	{"oj-recomp-limit", "openj9", "Recompilation", Crash, AtCompile, 2,
		"recompilation bookkeeping asserts at the third recompile of a method"},
	{"oj-bce-offbyone", "openj9", "Garbage Collection", Crash, AtGC, 2,
		"bounds-check elimination accepts an inclusive loop bound; the unchecked store corrupts the adjacent heap word, crashing the GC"},
	{"oj-gc-barrier", "openj9", "Garbage Collection", Crash, AtGC, 2,
		"compiled store barrier overruns 8-aligned arrays on element-0 stores, corrupting heap metadata found by the GC"},

	// --- ART-like: single method-JIT (tier 1).
	{"art-t1-ushr-int", "art", "OptimizingCompiler", Miscompile, AtExecute, 1,
		"int >>> lowered to an arithmetic shift for non-constant counts"},
	{"art-t1-osr-switch", "art", "OptimizingCompiler", Crash, AtCompile, 1,
		"OSR entry construction asserts when the target loop contains a switch"},
	{"art-t1-bigframe", "art", "OptimizingCompiler", Crash, AtCompile, 1,
		"frame layout assert for methods with very many locals"},
	{"art-gc-clear", "art", "Garbage Collection", Crash, AtGC, 1,
		"compiled array-clear intrinsic overruns by one word on 8-aligned lengths"},
}

// Set is an enabled-bug set, keyed by bug ID.
type Set map[string]bool

// Has reports whether the bug is enabled.
func (s Set) Has(id string) bool { return s != nil && s[id] }

// NewSet builds a set from ids.
func NewSet(ids ...string) Set {
	s := Set{}
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// ForJVM returns all catalog bugs afflicting the given simulated JVM.
func ForJVM(jvm string) []Info {
	var out []Info
	for _, b := range Catalog {
		if b.JVM == jvm {
			out = append(out, b)
		}
	}
	return out
}

// SetForJVM enables every catalog bug of one simulated JVM.
func SetForJVM(jvm string) Set {
	s := Set{}
	for _, b := range ForJVM(jvm) {
		s[b.ID] = true
	}
	return s
}
