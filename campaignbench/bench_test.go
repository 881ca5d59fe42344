package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"artemis/internal/fuzz"
	"artemis/internal/harness"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
	"artemis/internal/profiles"
	"artemis/internal/vm"
)

// gcmReproducer is the flagship GCM store-sink reproducer (JDK-8288975,
// the paper's Figure 2) with a driver loop hot enough to tier up.
const gcmReproducer = `class T {
    int l = 0;
    void g() {
        for (int i = 0; i < 10; i++) {
            for (int w = 0; w < 13; w += 4) { }
            l += 2;
        }
    }
    void main() {
        for (int r = 0; r < 2000; r++) { l = 0; g(); }
        print(l);
    }
}`

// observed is everything a run exposes that the timing wrappers must
// leave untouched.
type observed struct {
	Lines  []string
	Term   vm.TermKind
	Detail string
	Key    string
	Steps  int64
	Trace  string
	Stats  vm.ExecStats
}

func observe(res *vm.Result) observed {
	stats := *res.Stats
	stats.CompileNanos = 0 // wall clock, excluded from every deterministic export
	return observed{
		Lines: res.Output.Lines, Term: res.Output.Term, Detail: res.Output.Detail,
		Key: res.Output.Key(), Steps: res.Steps, Trace: res.Trace.Key(), Stats: stats,
	}
}

func TestTimingWrappersLeaveRunsUnchanged(t *testing.T) {
	prof, err := profiles.Get("hotspotlike")
	if err != nil {
		t.Fatal(err)
	}
	gcm, err := parser.Parse(gcmReproducer)
	if err != nil {
		t.Fatal(err)
	}
	programs := map[string]*ast.Program{
		"gcm-reproducer": gcm,
		"fuzzed-seed":    fuzz.Generate(fuzz.Options{Seed: 11}),
	}
	for name, prog := range programs {
		bp := harness.Compile(prog)
		for _, buggy := range []bool{true, false} {
			plain := prof.VMConfig(buggy)
			plain.CollectStats, plain.RecordTrace = true, true
			want := observe(vm.Run(plain, bp))

			tr := newTracer()
			timedCfg := prof.VMConfig(buggy)
			timedCfg.CollectStats, timedCfg.RecordTrace = true, true
			timedCfg.JIT = &timedJIT{inner: timedCfg.JIT, t: tr}
			got := observe(vm.Run(timedCfg, bp))

			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (buggy=%v): wrapped run differs\n got %+v\nwant %+v", name, buggy, got, want)
			}
			if tr.run.compileCalls == 0 || tr.run.execCalls == 0 || tr.run.envCalls == 0 {
				t.Errorf("%s (buggy=%v): wrappers saw no work: %+v", name, buggy, tr.run)
			}
			if len(tr.stack) != 0 {
				t.Errorf("%s (buggy=%v): %d frames left open", name, buggy, len(tr.stack))
			}
		}
	}
	if res := vm.Run(prof.VMConfig(true), harness.Compile(gcm)); res.Output.Lines[0] == "20" {
		t.Fatal("the GCM reproducer no longer triggers its defect; it proves nothing here")
	}
}

// The replica must reproduce a campaign exactly; a drift in the
// harness's signatures, run accounting or triage shows up here before
// it fails a traced run. Each case is the cheapest recorded block with
// at least the given number of distinct findings, and together they
// must cover crashes and mis-compilations, so every signature rule the
// replica copies is compared.
func TestReplicaReproducesCampaign(t *testing.T) {
	s, err := loadSuites(suiteJSON)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for name, findings := range map[string]int{"hunt-short": 2, "triage-openj9": 1} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var b block
		for _, c := range s[name] {
			if c.Count >= findings && (b.Count == 0 || c.ElapsedS < b.ElapsedS) {
				b = c
			}
		}
		if b.Count == 0 {
			t.Fatalf("%s: no recorded block has %d distinct findings", name, findings)
		}
		u, err := untracedRound(childSpec{mode: "round", w: w, seedBase: b.SeedBase, seeds: w.RoundSeeds, dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if got := signatureSet(u.Distinct); got != b.sigSet() {
			t.Errorf("%s block at %d: signature set %+v, golden %+v", name, b.SeedBase, got, b.sigSet())
		}
		tr, err := tracedRound(childSpec{mode: "traced", w: w, seedBase: b.SeedBase, seeds: w.RoundSeeds})
		if err != nil {
			t.Fatal(err)
		}
		if err := compareReplica(u, tr); err != nil {
			t.Errorf("%s block at %d: %v", name, b.SeedBase, err)
		}
		for _, f := range u.Distinct {
			kinds[f.Kind] = true
			if err := verifyFinding(w, f); err != nil {
				t.Errorf("%s: finding %q does not verify: %v", name, f.Signature, err)
			}
		}
	}
	for _, k := range []harness.FindingKind{harness.CrashFinding, harness.Miscompilation} {
		if !kinds[k.String()] {
			t.Errorf("no case found a %s; pick blocks that do", k)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=10) gives 5.5 and 9.9 as its
	// 5th and 9th cut points.
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.N != 10 || math.Abs(s.P50-5.5) > 1e-9 || math.Abs(s.P90-9.9) > 1e-9 {
		t.Fatalf("summarize = %+v, want {N:10 P50:5.5 P90:9.9}", s)
	}
	if one := summarize([]float64{3}); one != (summary{N: 1, P50: 3, P90: 3}) {
		t.Fatalf("one sample: %+v", one)
	}
	if empty := summarize(nil); empty != (summary{}) {
		t.Fatalf("empty sample: %+v", empty)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if len(raw) != len(wantKeys) {
		t.Fatalf("BENCHMARK.json has %d keys, want %v", len(raw), wantKeys)
	}
	for _, k := range wantKeys {
		if _, ok := raw[k]; !ok {
			t.Fatalf("BENCHMARK.json lacks %q", k)
		}
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program (2..8 allowed)", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %s: %q", i, w, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(b.EndToEnd), len(b.PerLayer))
	}
	var e2e []metricDef
	seen := map[string]bool{}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end-to-end metrics differ:\nBENCHMARK.json %v\nprogram        %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json %v\nprogram        %v", b.PerLayer, perLayer)
	}
	names := map[string]bool{}
	for _, m := range append(e2e, b.PerLayer...) {
		if !nameRE.MatchString(m.Name) || names[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		names[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, w := range b.Workloads {
		if !nameRE.MatchString(w.Name) || names[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		names[w.Name] = true
	}
	if len(b.Paths) != 1 || b.Paths[0] != "campaignbench" {
		t.Errorf("paths = %v", b.Paths)
	}
}

// layers.json records, for every per-layer metric, which end-to-end
// metrics it should move and on which workloads.
func TestLayerMovesNameExistingMetrics(t *testing.T) {
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var moves map[string]struct {
		Moves []string `json:"moves"`
		On    []string `json:"on"`
	}
	if err := json.Unmarshal(data, &moves); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	wl := map[string]bool{}
	for _, w := range workloads {
		wl[w.Name] = true
	}
	for _, m := range perLayer {
		mv, ok := moves[m.Name]
		if !ok {
			t.Errorf("layers.json has no entry for %s", m.Name)
			continue
		}
		for _, e := range mv.Moves {
			if !e2e[e] {
				t.Errorf("%s moves unknown end-to-end metric %q", m.Name, e)
			}
		}
		for _, w := range mv.On {
			if !wl[w] {
				t.Errorf("%s names unknown workload %q", m.Name, w)
			}
		}
	}
	if len(moves) != len(perLayer) {
		t.Errorf("layers.json has %d entries for %d per-layer metrics", len(moves), len(perLayer))
	}
}

func TestSuiteDrawsAreSeededBalancedHalves(t *testing.T) {
	s, err := loadSuites(suiteJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		suite := s[w.Name]
		if len(suite) < 4 {
			t.Errorf("%s: suite of %d blocks", w.Name, len(suite))
			continue
		}
		a, _ := s.draw(w, 1)
		b, _ := s.draw(w, 1)
		c, _ := s.draw(w, 2)
		if !reflect.DeepEqual(a, b) || len(a) != len(suite)/2 {
			t.Errorf("%s: the draw is not a function of the seed", w.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 draw the same blocks in the same order", w.Name)
		}
		var half, all float64
		for _, blk := range a {
			half += blk.ElapsedS
		}
		for _, blk := range suite {
			all += blk.ElapsedS
			if blk.SHA256 == "" || blk.Mutants == 0 || blk.CPUS == 0 {
				t.Errorf("%s: block at %d is not recorded", w.Name, blk.SeedBase)
			}
		}
		want := all * float64(len(a)) / float64(len(suite))
		if math.Abs(half/want-1) > drawTolerance {
			t.Errorf("%s: drawn half takes %.2fs, %d of %d blocks of the suite %.2fs", w.Name, half, len(a), len(suite), want)
		}
	}
}
