package vm

import (
	"fmt"
	"strings"
)

// TempVector is the temperature vector u_m^i of Definition 3.2: the
// sequence of temperatures method m passed through during its i-th
// call. ⟨t0⟩ means fully interpreted; ⟨t0,t2⟩ means OSR-compiled at
// level 2 mid-call; ⟨t2,t0⟩ means a deoptimization, and so on.
type TempVector struct {
	Method    string
	CallIndex int64
	Temps     []int
}

func (v TempVector) String() string {
	parts := make([]string, len(v.Temps))
	for i, t := range v.Temps {
		parts[i] = fmt.Sprintf("t%d", t)
	}
	return fmt.Sprintf("⟨%s⟩%d_%s", strings.Join(parts, ","), v.CallIndex, v.Method)
}

// JITTrace is a JIT compilation trace (Definition 3.3): the sequence
// of temperature vectors of all method calls in one program run. Two
// runs of the same program with different JIT traces form a
// compilation-space test pair.
type JITTrace struct {
	Vectors []TempVector
	NTotal  int // total calls (Vectors is capped)
	maxKeep int
	hash    uint64

	// maxTemp / maxTempMethod track the hottest temperature (and the
	// method that first reached it) incrementally over *every* added
	// vector — including the ones beyond maxKeep that Vectors drops —
	// so truncation can never misreport a tiered run as
	// interpreter-only.
	maxTemp       int
	maxTempMethod string
}

func newJITTrace(maxKeep int) *JITTrace {
	return &JITTrace{maxKeep: maxKeep, hash: fnvOffset64}
}

func (t *JITTrace) add(v TempVector) {
	if len(t.Vectors) < t.maxKeep {
		t.Vectors = append(t.Vectors, v)
	}
	for _, tm := range v.Temps {
		if tm > t.maxTemp {
			t.maxTemp = tm
			t.maxTempMethod = v.Method
		}
	}
	t.NTotal++
	// Chain hash with explicit framing: every variable-length field is
	// length-prefixed and the call index is included, so no two distinct
	// vector sequences serialize to the same byte stream. (The earlier
	// unframed concatenation let {Method:"a", Temps:[1]} and
	// {Method:"a\x01", Temps:[]} collide, silently merging two distinct
	// compilation-space points of Definition 3.3.)
	h := fnvWord(fnvOffset64, t.hash)
	h = fnvBytes(fnvWord(h, uint64(len(v.Method))), v.Method)
	h = fnvWord(fnvWord(h, uint64(v.CallIndex)), uint64(len(v.Temps)))
	for _, tm := range v.Temps {
		h = (h ^ uint64(byte(tm))) * fnvPrime64
	}
	t.hash = h
}

// Hash digests the whole trace; two runs took the same JIT trace iff
// the hashes (and NTotal) match.
func (t *JITTrace) Hash() uint64 { return t.hash }

// Key returns a comparable summary.
func (t *JITTrace) Key() string { return fmt.Sprintf("%d|%016x", t.NTotal, t.hash) }

// String renders the (possibly truncated) trace.
func (t *JITTrace) String() string {
	parts := make([]string, 0, len(t.Vectors))
	for _, v := range t.Vectors {
		parts = append(parts, v.String())
	}
	s := strings.Join(parts, " → ")
	if t.NTotal > len(t.Vectors) {
		s += fmt.Sprintf(" … (%d more)", t.NTotal-len(t.Vectors))
	}
	return s
}

// MaxTemp returns the hottest temperature observed anywhere in the
// trace (0 = the run never left the interpreter). It is maintained
// incrementally by add, so it covers the full run even when Vectors
// was truncated at maxKeep.
func (t *JITTrace) MaxTemp() int { return t.maxTemp }

// HottestMethod returns the name of the method that first reached
// MaxTemp ("" when the run never left the interpreter). Like MaxTemp
// it is truncation-proof.
func (t *JITTrace) HottestMethod() string { return t.maxTempMethod }
