package bugs

import "testing"

func TestCatalogIntegrity(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Catalog {
		if b.ID == "" || b.Component == "" || b.Desc == "" {
			t.Errorf("incomplete catalog entry: %+v", b)
		}
		if seen[b.ID] {
			t.Errorf("duplicate bug id %q", b.ID)
		}
		seen[b.ID] = true
		switch b.JVM {
		case "hotspot", "openj9", "art":
		default:
			t.Errorf("bug %s: unknown JVM %q", b.ID, b.JVM)
		}
		if b.Tier != 1 && b.Tier != 2 {
			t.Errorf("bug %s: tier %d", b.ID, b.Tier)
		}
	}
}

func TestEveryJVMHasRealisticMix(t *testing.T) {
	// The paper's shape: every JVM has both crashes and at least
	// hotspot/openj9/art-specific defects; openj9 is GC-heavy.
	for _, jvm := range []string{"hotspot", "openj9", "art"} {
		list := ForJVM(jvm)
		if len(list) < 3 {
			t.Errorf("%s: only %d seeded bugs", jvm, len(list))
		}
		crashes, miscompiles := 0, 0
		for _, b := range list {
			switch b.Kind {
			case Crash:
				crashes++
			case Miscompile:
				miscompiles++
			}
		}
		if crashes == 0 || miscompiles == 0 {
			t.Errorf("%s: want both crashes (%d) and mis-compilations (%d)", jvm, crashes, miscompiles)
		}
	}
	gc := 0
	for _, b := range ForJVM("openj9") {
		if b.Component == "Garbage Collection" {
			gc++
		}
	}
	if gc < 2 {
		t.Errorf("openj9 should be GC-crash heavy (Table 2), have %d", gc)
	}
}

func TestSets(t *testing.T) {
	s := NewSet("a", "b")
	if !s.Has("a") || s.Has("c") {
		t.Error("Set membership broken")
	}
	var nilSet Set
	if nilSet.Has("a") {
		t.Error("nil set must be empty")
	}
	hs := SetForJVM("hotspot")
	for _, b := range ForJVM("hotspot") {
		if !hs.Has(b.ID) {
			t.Errorf("SetForJVM missing %s", b.ID)
		}
	}
	if !hs.Has("hs-gcm-store-sink") {
		t.Error("flagship bug missing from catalog")
	}
	if hs.Has("nonexistent") {
		t.Error("SetForJVM invented a bug")
	}
}
