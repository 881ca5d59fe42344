package vm

// Action tells the dispatcher how to execute a method call or react to
// a hot back edge.
type Action int

const (
	// ActInterpret: run (or keep running) in the interpreter.
	ActInterpret Action = iota
	// ActCompile: ensure a compiled version at Tier exists and run it.
	ActCompile
	// ActUseCompiled: run the best already-compiled version, if any.
	ActUseCompiled
)

// Decision is a policy verdict.
type Decision struct {
	Action Action
	Tier   int
}

// Policy decides when methods are compiled and whether calls execute
// compiled code. The default CounterPolicy realizes ordinary
// threshold-driven tiered compilation; ForcedPolicy gives complete
// external control, which is the "ideal realization" of compilation
// space exploration that Section 3.2 describes (possible here because
// we own the VM).
type Policy interface {
	// OnEntry is consulted at every method call, after the invocation
	// counter has been incremented.
	OnEntry(st *MethodState) Decision
	// OnBackEdge is consulted at every interpreted loop back edge,
	// after the back-edge counter has been incremented. ActCompile
	// triggers OSR compilation at the returned tier; ActUseCompiled
	// enters the already-cached OSR entry for the loop (a no-op when
	// none is cached).
	OnBackEdge(st *MethodState, loopID int) Decision
}

// CounterPolicy implements classic threshold-based tiered compilation:
// crossing Z_i at a method entry compiles at tier i; crossing the OSR
// threshold at a back edge OSR-compiles the enclosing loop.
type CounterPolicy struct {
	// EntryThresholds are Z_1..Z_N for method invocation counters.
	EntryThresholds []int64
	// OSRThresholds are the back-edge thresholds per tier (same
	// length).
	OSRThresholds []int64
}

// OnEntry implements Policy.
func (p *CounterPolicy) OnEntry(st *MethodState) Decision {
	inv := st.Counters.Invocations
	tier := temperatureOf(inv, p.EntryThresholds)
	if tier == 0 {
		return Decision{Action: ActUseCompiled}
	}
	if st.HighestTier() >= tier {
		return Decision{Action: ActUseCompiled}
	}
	return Decision{Action: ActCompile, Tier: tier}
}

// OnBackEdge implements Policy.
func (p *CounterPolicy) OnBackEdge(st *MethodState, loopID int) Decision {
	be := st.Counters.Backedge[loopID]
	tier := temperatureOf(be, p.OSRThresholds)
	if tier == 0 {
		return Decision{Action: ActInterpret}
	}
	if st.osrTier(loopID) >= tier {
		// Reuse the cached version: requesting ActCompile here would
		// ask for a redundant OSR recompilation on every hot back edge.
		return Decision{Action: ActUseCompiled, Tier: tier}
	}
	return Decision{Action: ActCompile, Tier: tier}
}

// ForcedPolicy grants complete control over the interleaving between
// interpretation and compilation: Compile decides, per method and per
// dynamic call, whether the call runs compiled code. It is used to
// enumerate compilation spaces exhaustively (Figure 1) and by the
// "traditional approach" baseline (-Xjit:count=0 in Section 4.3, i.e.
// compile every call).
type ForcedPolicy struct {
	// Tier used for forced compilations (defaults to 1 when zero).
	Tier int
	// Compile reports whether a call runs compiled code (callIndex is
	// 1-based and counts the method's calls); nil interprets every
	// call.
	Compile func(method string, callIndex int64) bool
}

// OnEntry implements Policy.
func (p *ForcedPolicy) OnEntry(st *MethodState) Decision {
	if p.Compile == nil || !p.Compile(st.Name, st.Counters.Invocations) {
		return Decision{Action: ActInterpret}
	}
	tier := p.Tier
	if tier <= 0 {
		tier = 1
	}
	return Decision{Action: ActCompile, Tier: tier}
}

// OnBackEdge implements Policy: forced runs never OSR-compile, so a
// loop stays in whichever mode its method was entered in.
func (p *ForcedPolicy) OnBackEdge(st *MethodState, loopID int) Decision {
	return Decision{Action: ActInterpret}
}
