package vm

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

func traceOf(vecs ...TempVector) *JITTrace {
	tr := newJITTrace(16)
	for _, v := range vecs {
		tr.add(v)
	}
	return tr
}

// TestTraceHashFraming is the regression test for the unframed trace
// hash: the old digest concatenated method name and temperature bytes
// with no length prefix and dropped CallIndex, so distinct vector
// sequences — distinct compilation-space points under Definition 3.3 —
// could serialize to the same byte stream and silently merge. The
// framed hash must separate every such pair.
func TestTraceHashFraming(t *testing.T) {
	cases := []struct {
		name string
		a, b *JITTrace
	}{
		{
			// The original collision: the temperature byte 1 read as
			// part of the method name.
			"method/temps boundary",
			traceOf(TempVector{Method: "a", Temps: []int{1}}),
			traceOf(TempVector{Method: "a\x01", Temps: []int{}}),
		},
		{
			// Bytes migrating across adjacent vectors.
			"vector boundary",
			traceOf(TempVector{Method: "ab"}, TempVector{Method: "c"}),
			traceOf(TempVector{Method: "a"}, TempVector{Method: "bc"}),
		},
		{
			// Same method and temps, different call index: a method's
			// 1st and 5th calls are different trace positions.
			"call index",
			traceOf(TempVector{Method: "m", CallIndex: 1, Temps: []int{2}}),
			traceOf(TempVector{Method: "m", CallIndex: 5, Temps: []int{2}}),
		},
		{
			// Temps splitting across vectors of the same method.
			"temps split",
			traceOf(TempVector{Method: "m", Temps: []int{1, 2}}),
			traceOf(TempVector{Method: "m", Temps: []int{1}}, TempVector{Method: "m", Temps: []int{2}}),
		},
	}
	for _, tc := range cases {
		if tc.a.Hash() == tc.b.Hash() {
			t.Errorf("%s: traces %q and %q hash identically (%016x)",
				tc.name, tc.a, tc.b, tc.a.Hash())
		}
	}
}

// TestTraceHashDeterministic pins that the hash depends only on the
// added vectors, not on retention: a trace whose Vectors were
// truncated at maxKeep must still digest every added vector.
func TestTraceHashDeterministic(t *testing.T) {
	vecs := []TempVector{
		{Method: "f", CallIndex: 1, Temps: []int{0}},
		{Method: "g", CallIndex: 1, Temps: []int{0, 2}},
		{Method: "f", CallIndex: 2, Temps: []int{2}},
	}
	full := traceOf(vecs...)
	capped := newJITTrace(1)
	for _, v := range vecs {
		capped.add(v)
	}
	if full.Hash() != capped.Hash() {
		t.Errorf("truncation changed the hash: %016x vs %016x", full.Hash(), capped.Hash())
	}
	if full.Hash() == traceOf(vecs[:2]...).Hash() {
		t.Error("prefix trace hashes like the full trace")
	}
}

// TestDigestsAreFNV1a pins the inline fold that both digests share to
// hash/fnv's 64-bit FNV-1a over the framed byte streams: each step
// hashes the previous digest as eight little-endian bytes and then the
// new line, or the new vector with its length prefixes.
func TestDigestsAreFNV1a(t *testing.T) {
	step := func(prev uint64, parts ...[]byte) uint64 {
		h := fnv.New64a()
		h.Write(binary.LittleEndian.AppendUint64(nil, prev))
		for _, p := range parts {
			h.Write(p)
		}
		return h.Sum64()
	}
	word := func(x uint64) []byte { return binary.LittleEndian.AppendUint64(nil, x) }

	out := newOutput()
	want := fnv.New64a().Sum64()
	for _, line := range []string{"", "-9223372036854775808", "true", "42"} {
		out.addLine([]byte(line))
		want = step(want, []byte(line))
	}
	if out.Hash() != want {
		t.Errorf("output digest %016x, hash/fnv gives %016x", out.Hash(), want)
	}

	tr := newJITTrace(1)
	want = fnv.New64a().Sum64()
	for _, v := range []TempVector{
		{Method: "main", CallIndex: 1, Temps: []int{0}},
		{Method: "f", CallIndex: 300, Temps: []int{0, 2, 0}},
		{Method: "", CallIndex: 2},
	} {
		tr.add(v)
		temps := make([]byte, len(v.Temps))
		for i, tm := range v.Temps {
			temps[i] = byte(tm)
		}
		want = step(want, word(uint64(len(v.Method))), []byte(v.Method),
			word(uint64(v.CallIndex)), word(uint64(len(v.Temps))), temps)
	}
	if tr.Hash() != want {
		t.Errorf("trace digest %016x, hash/fnv gives %016x", tr.Hash(), want)
	}
}
