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

// ForceChoice says how one specific method must execute.
type ForceChoice int

const (
	ForceDefault   ForceChoice = iota // interpret
	ForceInterpret                    // always interpret
	ForceCompile                      // always run compiled code
)

// ForcedPolicy grants complete control over the interleaving between
// interpretation and compilation: per method, or per (method, call
// index) via Choice. It is used to enumerate compilation spaces
// exhaustively (Figure 1) and by the "traditional approach" baseline
// (-Xjit:count=0 in Section 4.3, i.e. ForceCompile for everything).
type ForcedPolicy struct {
	// Tier used for forced compilations (defaults to 1 when zero).
	Tier int
	// Methods maps method name to a fixed choice.
	Methods map[string]ForceChoice
	// Choice, when non-nil, decides per dynamic call (callIndex is
	// 1-based); it overrides Methods.
	Choice func(method string, callIndex int64) ForceChoice
}

func (p *ForcedPolicy) tier() int {
	if p.Tier <= 0 {
		return 1
	}
	return p.Tier
}

func (p *ForcedPolicy) choiceFor(st *MethodState) ForceChoice {
	if p.Choice != nil {
		if c := p.Choice(st.Name, st.Counters.Invocations); c != ForceDefault {
			return c
		}
	}
	if p.Methods != nil {
		return p.Methods[st.Name]
	}
	return ForceDefault
}

// OnEntry implements Policy.
func (p *ForcedPolicy) OnEntry(st *MethodState) Decision {
	switch p.choiceFor(st) {
	case ForceInterpret:
		return Decision{Action: ActInterpret}
	case ForceCompile:
		return Decision{Action: ActCompile, Tier: p.tier()}
	}
	return Decision{Action: ActInterpret}
}

// OnBackEdge implements Policy: forced runs never OSR-compile, so a
// loop stays in whichever mode its method was entered in.
func (p *ForcedPolicy) OnBackEdge(st *MethodState, loopID int) Decision {
	return Decision{Action: ActInterpret}
}
