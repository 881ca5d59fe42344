package jit

import (
	"fmt"
	"time"

	"artemis/internal/bugs"
	"artemis/internal/jit/ir"
	"artemis/internal/vm"
)

// Options configures a Compiler instance.
type Options struct {
	// MaxTier is the number of optimization levels (N of Definition
	// 3.1): 1 = quick tier only, 2 = quick + optimizing tier.
	MaxTier int
	// Bugs is the enabled seeded-defect set (nil = a correct compiler).
	Bugs bugs.Set
	// DisablePasses names optimizing-tier passes this compiler skips
	// (see PassNames). Per-instance state — two compilers with
	// different sets can run concurrently, which pass bisection needs.
	DisablePasses []string
	// ValidateIR checks SSA invariants after construction and after
	// every pass; a violation is a compiler crash whose message names
	// the pass that broke the IR.
	ValidateIR bool
}

// PassNames lists the optimizing-tier passes in pipeline order — the
// canonical unit set for DisablePasses and pass bisection. "fold"
// covers both constant-folding runs and foldbr.
var PassNames = []string{"valprop", "fold", "foldbr", "gvn", "licm", "bce", "gcm"}

// minBranchSamples is the profile confidence needed before the
// optimizing tier speculates on a one-sided branch.
const minBranchSamples = 8

// Compiler implements vm.JITCompiler with two tiers:
//
//	tier 1 — "quick": direct SSA construction, no optimization, no
//	         speculation; the analogue of HotSpot C1 / ART's
//	         OptimizingCompiler baseline configuration.
//	tier 2 — "opt": profile-guided speculation with uncommon traps,
//	         local/global value propagation, constant folding, GVN,
//	         loop optimization (LICM), bounds-check elimination, and
//	         global code motion; the analogue of HotSpot C2 / OpenJ9's
//	         warm-and-above optimizer.
type Compiler struct {
	opts    Options
	disable map[string]bool // Options.DisablePasses as a set (nil when empty)
}

// New creates a Compiler.
func New(opts Options) *Compiler {
	if opts.MaxTier <= 0 {
		opts.MaxTier = 2
	}
	c := &Compiler{opts: opts}
	if len(opts.DisablePasses) > 0 {
		c.disable = make(map[string]bool, len(opts.DisablePasses))
		for _, p := range opts.DisablePasses {
			c.disable[p] = true
		}
	}
	return c
}

var _ vm.JITCompiler = (*Compiler)(nil)

// MaxTier implements vm.JITCompiler.
func (c *Compiler) MaxTier() int { return c.opts.MaxTier }

// Compile implements vm.JITCompiler.
func (c *Compiler) Compile(req vm.CompileRequest) (code vm.CompiledCode, cerr *vm.CompileError) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			if cc, ok := r.(compilerCrash); ok {
				code = nil
				cerr = &vm.CompileError{
					Crash: true,
					Msg:   fmt.Sprintf("assertion failure in %s: %s", cc.component, cc.msg),
				}
				return
			}
			panic(r)
		}
	}()

	out, passOpts := c.reference(req)
	if out == nil {
		// The VM caches a benign failure as "no OSR entry".
		m := req.Prog.Methods[req.MethodIndex]
		return nil, &vm.CompileError{Msg: fmt.Sprintf("no OSR entry: loop %d of %s is unreachable", req.OSRLoopID, m.Name)}
	}
	out.pack()
	out.stats = &vm.CompileStats{OptsByPass: passOpts, Nanos: time.Since(start).Nanoseconds()}
	return out, nil
}

// reference builds, optimizes and lowers the requested method to reference
// code, returning it with the per-pass optimization counts, or nil for an
// OSR request at an unreachable loop header (see buildSSA). Seeded
// compiler crashes panic with a compilerCrash, which Compile recovers.
func (c *Compiler) reference(req vm.CompileRequest) (*Code, map[string]int64) {
	bugSet := c.opts.Bugs
	tier := req.Tier
	if tier > c.opts.MaxTier {
		tier = c.opts.MaxTier
	}
	m := req.Prog.Methods[req.MethodIndex]

	if bugSet.Has("oj-recomp-limit") && req.Recompiles >= 6 {
		crashf("Recompilation", "persistent method info: recompile #%d of %s", req.Recompiles+1, m.Name)
	}
	if tier == 1 && bugSet.Has("hs-c1-bigmethod") && len(m.Code) > 256 && m.NParams >= 4 {
		crashf("Inlining, C1", "inline buffer exhausted: %d bytecodes, %d params", len(m.Code), m.NParams)
	}

	cfg := buildConfig{
		speculate:       tier >= 2 && req.Speculate,
		bugStaleLocalFS: bugSet.Has("oj-deopt-stale"),
		bugGraphAssert:  tier >= 2 && bugSet.Has("hs-igb-region"),
	}
	f := buildSSA(req.Prog, req.MethodIndex, req.OSRLoopID, req.Profile, cfg)
	if f == nil {
		return nil, nil
	}

	checkIR := func(stage string) {
		if !c.opts.ValidateIR {
			return
		}
		if err := ir.Validate(f); err != nil {
			crashf("IR Validator", "after %s in %s: %v", stage, f.Name, err)
		}
	}
	checkIR("build")

	// Per-pass optimization counts, keyed by the same pass names
	// DisablePasses accepts; surfaced through the compile result as
	// vm.CompileStats.
	passOpts := map[string]int64{}
	runPass := func(name string, pass func() int) {
		passOpts[name] += int64(pass())
		checkIR(name)
	}
	if tier >= 2 {
		if !c.disable["valprop"] {
			runPass("valprop", func() int { return localValueProp(f, bugSet) })
		}
		if !c.disable["fold"] {
			runPass("fold", func() int { return foldConstants(f, bugSet) })
		}
		if !c.disable["fold"] && !c.disable["foldbr"] {
			runPass("foldbr", func() int { return foldBranches(f) })
		}
		if !c.disable["gvn"] {
			runPass("gvn", func() int { return gvn(f, bugSet) })
		}
		if !c.disable["licm"] {
			runPass("licm", func() int { return loopOptimize(f, bugSet) })
		}
		if !c.disable["bce"] {
			runPass("bce", func() int { return boundsCheckElim(f, bugSet) })
		}
		if !c.disable["gcm"] {
			runPass("gcm", func() int { return globalCodeMotion(f, bugSet) })
		}
		if !c.disable["fold"] {
			runPass("fold", func() int { return foldConstants(f, bugSet) })
		}
		shapeChecks(f, bugSet)
	}

	return lower(f, tier, bugSet), passOpts
}
