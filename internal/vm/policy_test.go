package vm

import (
	"testing"
	"testing/quick"
)

func TestCounterPolicyEntry(t *testing.T) {
	p := &CounterPolicy{EntryThresholds: []int64{100, 1000}, OSRThresholds: []int64{150, 1500}}
	st := &MethodState{Name: "m", osrTiers: []int{0}}
	st.Counters.Backedge = []int64{0}

	st.Counters.Invocations = 50
	if d := p.OnEntry(st); d.Action != ActUseCompiled {
		t.Errorf("cold method: %+v", d)
	}
	st.Counters.Invocations = 100
	if d := p.OnEntry(st); d.Action != ActCompile || d.Tier != 1 {
		t.Errorf("tier-1 threshold: %+v", d)
	}
	st.Counters.Invocations = 5000
	if d := p.OnEntry(st); d.Action != ActCompile || d.Tier != 2 {
		t.Errorf("tier-2 threshold: %+v", d)
	}
	// Already compiled at tier 2: no recompilation needed.
	st.hiTier = 2
	if d := p.OnEntry(st); d.Action != ActUseCompiled {
		t.Errorf("already hot: %+v", d)
	}
}

func TestCounterPolicyBackEdge(t *testing.T) {
	p := &CounterPolicy{EntryThresholds: []int64{100, 1000}, OSRThresholds: []int64{150, 1500}}
	st := &MethodState{Name: "m", osrTiers: []int{0}}
	st.Counters.Backedge = []int64{0}

	st.Counters.Backedge[0] = 10
	if d := p.OnBackEdge(st, 0); d.Action != ActInterpret {
		t.Errorf("cold loop: %+v", d)
	}
	st.Counters.Backedge[0] = 200
	if d := p.OnBackEdge(st, 0); d.Action != ActCompile || d.Tier != 1 {
		t.Errorf("OSR tier 1: %+v", d)
	}
	st.Counters.Backedge[0] = 2000
	if d := p.OnBackEdge(st, 0); d.Action != ActCompile || d.Tier != 2 {
		t.Errorf("OSR tier 2: %+v", d)
	}
}

func TestForcedPolicy(t *testing.T) {
	st := &MethodState{Name: "f"}
	onlyF := func(m string, _ int64) bool { return m == "f" }
	p := &ForcedPolicy{Compile: onlyF}
	if d := p.OnEntry(st); d.Action != ActCompile || d.Tier != 1 {
		t.Errorf("forced compile: %+v", d)
	}
	p2 := &ForcedPolicy{Tier: 2, Compile: onlyF}
	if d := p2.OnEntry(st); d.Action != ActCompile || d.Tier != 2 {
		t.Errorf("forced compile at tier 2: %+v", d)
	}
	// Methods the predicate rejects interpret, and so does every call
	// without a predicate.
	other := &MethodState{Name: "g"}
	if d := p.OnEntry(other); d.Action != ActInterpret {
		t.Errorf("rejected method: %+v", d)
	}
	if d := (&ForcedPolicy{Tier: 2}).OnEntry(st); d.Action != ActInterpret {
		t.Errorf("nil predicate: %+v", d)
	}
	// Forced runs never OSR-compile: even a force-compiled method's
	// hot loop keeps interpreting at its back edges.
	st.Counters.Backedge = []int64{1 << 20}
	st.osrTiers = []int{0}
	if d := p.OnBackEdge(st, 0); d.Action != ActInterpret {
		t.Errorf("hot back edge of a forced method: %+v", d)
	}
	// The predicate sees the 1-based call index.
	p3 := &ForcedPolicy{Compile: func(m string, call int64) bool { return call%2 == 0 }}
	st.Counters.Invocations = 2
	if d := p3.OnEntry(st); d.Action != ActCompile {
		t.Errorf("even call: %+v", d)
	}
	st.Counters.Invocations = 3
	if d := p3.OnEntry(st); d.Action != ActInterpret {
		t.Errorf("odd call: %+v", d)
	}
}

// TestTemperatureTotalOrder is the Definition 3.1/3.2 property:
// temperature is monotone in counter values for any sorted threshold
// vector.
func TestTemperatureTotalOrder(t *testing.T) {
	thr := []int64{10, 100, 1000}
	check := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return temperatureOf(x, thr) <= temperatureOf(y, thr)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestTempVectorString(t *testing.T) {
	v := TempVector{Method: "foo", CallIndex: 3, Temps: []int{0, 2, 0}}
	want := "⟨t0,t2,t0⟩3_foo"
	if got := v.String(); got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestJITTraceHashing(t *testing.T) {
	a := newJITTrace(10)
	b := newJITTrace(10)
	a.add(TempVector{Method: "f", CallIndex: 1, Temps: []int{0}})
	b.add(TempVector{Method: "f", CallIndex: 1, Temps: []int{0}})
	if a.Key() != b.Key() {
		t.Error("identical traces must hash equal")
	}
	b.add(TempVector{Method: "f", CallIndex: 2, Temps: []int{1}})
	if a.Key() == b.Key() {
		t.Error("different traces must hash different")
	}
	// Capped retention still hashes everything.
	c := newJITTrace(1)
	d := newJITTrace(1)
	for i := int64(1); i <= 5; i++ {
		c.add(TempVector{Method: "f", CallIndex: i, Temps: []int{0}})
		d.add(TempVector{Method: "f", CallIndex: i, Temps: []int{0}})
	}
	d.add(TempVector{Method: "f", CallIndex: 6, Temps: []int{2}})
	if c.Key() == d.Key() {
		t.Error("hash must cover vectors beyond the retention cap")
	}
	if len(c.Vectors) != 1 || c.NTotal != 5 {
		t.Errorf("cap bookkeeping: kept=%d total=%d", len(c.Vectors), c.NTotal)
	}
}

func TestHeapHandleBasics(t *testing.T) {
	h := NewHeap(1 << 16)
	a := h.Alloc(2 /* KindInt */, 4)
	if h.Get(a) == nil || h.Get(a+100) != nil || h.Get(0) != nil || h.Get(-1) != nil {
		t.Error("handle validity wrong")
	}
	if h.Get(a).Len() != 4 {
		t.Errorf("len = %d", h.Get(a).Len())
	}
	if err := h.Collect(func(yield func(int64)) { yield(a) }); err != nil {
		t.Errorf("fresh heap corrupt: %v", err)
	}
	// Corrupt the canary: Collect must notice.
	h.Get(a).Data[4] = 12345
	if err := h.Collect(func(yield func(int64)) { yield(a) }); err == nil {
		t.Error("collect missed corruption")
	}
}

func TestHeapCollectFreesUnreachable(t *testing.T) {
	h := NewHeap(1 << 16)
	live := h.Alloc(2, 8)
	dead := h.Alloc(2, 8)
	if err := h.Collect(func(yield func(int64)) { yield(live) }); err != nil {
		t.Fatal(err)
	}
	if h.Get(live) == nil {
		t.Error("live object freed")
	}
	if h.Get(dead) != nil {
		t.Error("dead object retained")
	}
}
