// Package profiles defines the three simulated production JVM
// configurations validated in the paper's evaluation (Section 4.1):
// a HotSpot-like VM (C1+C2 tiers), an OpenJ9-like VM (one JIT with
// warm/hot levels and GC-heavy failure modes), and an ART-like VM
// (single method-JIT with high thresholds). Each profile couples
//
//   - tier structure and compilation thresholds (Definition 3.1),
//   - the JoNM loop-synthesis bounds MIN/MAX/STEP the paper uses for
//     that JVM (5,000/10,000 for HotSpot and OpenJ9, 20,000/50,000
//     for ART), and
//   - the seeded-defect set simulating that JVM's latent JIT bugs.
package profiles

import (
	"fmt"

	"artemis/internal/bugs"
	"artemis/internal/jit"
	"artemis/internal/vm"
)

// Profile describes one simulated JVM.
type Profile struct {
	// Name is the profile identifier ("hotspotlike", ...).
	Name string
	// JVM is the bug-catalog key ("hotspot", "openj9", "art").
	JVM string
	// MaxTier is the number of JIT levels.
	MaxTier int
	// EntryThresholds / OSRThresholds are the Z_i counter thresholds.
	EntryThresholds []int64
	OSRThresholds   []int64
	// SynMin, SynMax, SynStepMax are the JoNM loop-synthesis
	// parameters for this VM (Section 4.1).
	SynMin, SynMax, SynStepMax int64
	// Description for reports.
	Description string
}

var all = []*Profile{
	{
		Name:            "hotspotlike",
		JVM:             "hotspot",
		MaxTier:         2,
		EntryThresholds: []int64{350, 1400},
		OSRThresholds:   []int64{450, 1800},
		SynMin:          5000,
		SynMax:          10000,
		SynStepMax:      10,
		Description:     "HotSpot-like: C1 quick tier + C2 optimizing tier, aggressive speculation",
	},
	{
		Name:            "openj9like",
		JVM:             "openj9",
		MaxTier:         2,
		EntryThresholds: []int64{300, 1200},
		OSRThresholds:   []int64{400, 1500},
		SynMin:          5000,
		SynMax:          10000,
		SynStepMax:      10,
		Description:     "OpenJ9-like: single JIT with warm/hot levels; heap-corrupting defects surface in the GC",
	},
	{
		Name:            "artlike",
		JVM:             "art",
		MaxTier:         1,
		EntryThresholds: []int64{2500},
		OSRThresholds:   []int64{2800},
		SynMin:          20000,
		SynMax:          50000,
		SynStepMax:      10,
		Description:     "ART-like: one method-JIT (OptimizingCompiler) with high thresholds",
	},
}

// All returns every profile.
func All() []*Profile { return all }

// Get returns a profile by name.
func Get(name string) (*Profile, error) {
	for _, p := range all {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("profiles: unknown profile %q (have hotspotlike, openj9like, artlike)", name)
}

// BugSet returns the defect set for this profile (every catalog bug of
// its simulated JVM).
func (p *Profile) BugSet() bugs.Set { return bugs.SetForJVM(p.JVM) }

// VMConfig builds a VM configuration for one run. Each call creates a
// fresh compiler (compiled-code caches are per-VM anyway; compiler
// stats stay isolated per run). When buggy is false, the JIT is
// correct — the configuration to use when validating the validator.
func (p *Profile) VMConfig(buggy bool) vm.Config {
	var set bugs.Set
	if buggy {
		set = p.BugSet()
	}
	return p.VMConfigWithBugs(set)
}

// VMConfigWithBugs builds a VM configuration with an explicit defect
// set (blame's defect isolation removes one defect at a time).
func (p *Profile) VMConfigWithBugs(set bugs.Set) vm.Config {
	return vm.Config{
		EntryThresholds: p.EntryThresholds,
		OSRThresholds:   p.OSRThresholds,
		JIT:             jit.New(jit.Options{MaxTier: p.MaxTier, Bugs: set}),
	}
}

// InterpreterConfig returns a JIT-free configuration of this profile
// (the -Xint analogue).
func (p *Profile) InterpreterConfig() vm.Config {
	return vm.Config{}
}
