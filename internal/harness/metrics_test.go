package harness

import (
	"bytes"
	"testing"
	"time"

	"artemis/internal/lang/parser"
	"artemis/internal/vm"
)

// metricsCampaign runs one small metered campaign. StepLimit is kept
// low so hot mutants time out cheaply; all knobs are deterministic.
func metricsCampaign(t *testing.T, workers int) *CampaignStats {
	t.Helper()
	return RunCampaign(CampaignOptions{
		Options: Options{
			Profile: profile(t, "openj9like"), MaxIter: 4, Buggy: true,
			StepLimit: 3_000_000, CollectMetrics: true,
		},
		Seeds:   10,
		Workers: workers,
	})
}

// TestMetricsDeterministicAcrossWorkers: the -metrics JSON (and the
// CampaignMetrics behind it) must be byte-identical for workers
// 1, 2 and 4 — metrics ride the same seed-ordered merge as findings.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	var ref []byte
	for _, w := range []int{1, 2, 4} {
		stats := metricsCampaign(t, w)
		if stats.Metrics == nil {
			t.Fatalf("workers=%d: CollectMetrics campaign has nil Metrics", w)
		}
		data, err := MetricsReport([]*CampaignStats{stats})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = data
			m := stats.Metrics
			// Sanity on the reference: the campaign must actually have
			// explored — compiled execution, multiple tiers, and more
			// than one distinct JIT trace per seed on average.
			if m.MeteredRuns == 0 || m.Exec.CompiledSteps == 0 {
				t.Fatalf("degenerate metrics: %+v", m)
			}
			if len(m.RunsByMaxTier) < 2 {
				t.Errorf("no run left the interpreter: RunsByMaxTier=%v", m.RunsByMaxTier)
			}
			if m.DistinctTracesTotal < m.MeteredSeeds {
				t.Errorf("fewer distinct traces (%d) than seeds (%d)", m.DistinctTracesTotal, m.MeteredSeeds)
			}
			if m.MultiTraceSeeds == 0 {
				t.Error("no seed took two distinct JIT traces — no exploration happened")
			}
			continue
		}
		if !bytes.Equal(ref, data) {
			t.Errorf("workers=%d metrics JSON differs from workers=1:\n%s\nvs\n%s", w, ref, data)
		}
	}
}

// TestMetricsDisabledByDefault: without CollectMetrics neither the
// per-seed result nor the campaign carries metrics.
func TestMetricsDisabledByDefault(t *testing.T) {
	stats := RunCampaign(CampaignOptions{
		Options: Options{Profile: profile(t, "hotspotlike"), MaxIter: 2, Buggy: true},
		Seeds:   3,
	})
	if stats.Metrics != nil {
		t.Errorf("Metrics = %+v, want nil when CollectMetrics is off", stats.Metrics)
	}
	src := `class T { void main() { print(1); } }`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res := Validate(prog, 1, Options{Profile: profile(t, "hotspotlike")})
	if res.Metrics != nil {
		t.Errorf("Result.Metrics = %+v, want nil", res.Metrics)
	}
}

// TestSeedMetricsShape: Validate with metrics on accounts every run it
// performs, and the interp/compiled step split is internally exact.
func TestSeedMetricsShape(t *testing.T) {
	src := `class T {
        long work(int[] a, int n) {
            long acc = 0;
            for (int r = 0; r < n; r++) {
                for (int i = 0; i < a.length; i++) { acc += a[i] + r; }
            }
            return acc;
        }
        void main() {
            int[] a = new int[32];
            for (int i = 0; i < a.length; i++) { a[i] = i; }
            long t = 0;
            for (int k = 0; k < 200; k++) { t += work(a, 30); }
            print(t);
        }
    }`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res := Validate(prog, 7, Options{
		Profile: profile(t, "hotspotlike"), MaxIter: 3, CollectMetrics: true,
	})
	m := res.Metrics
	if m == nil {
		t.Fatal("nil Metrics with CollectMetrics on")
	}
	if m.Runs != int64(res.Runs) {
		t.Errorf("metered %d runs, Result counted %d", m.Runs, res.Runs)
	}
	var tiered int64
	for _, n := range m.RunsByMaxTier {
		tiered += n
	}
	if tiered != m.Runs {
		t.Errorf("RunsByMaxTier %v sums to %d, want %d", m.RunsByMaxTier, tiered, m.Runs)
	}
	if m.DistinctTraces == 0 {
		t.Error("traced runs produced no distinct trace keys")
	}
	if m.Exec.CompiledSteps == 0 {
		t.Error("hot seed never executed compiled code")
	}
}

// TestPerfSignaturesDistinct is the regression test for the
// performance-dedup bug: signatures used to be "perf|<profile>", so
// every performance discrepancy in a profile collapsed into one
// distinct slot. Two different perf bugs — different offending method
// or different slowdown magnitude — must now occupy two slots, while
// a true duplicate still dedups.
func TestPerfSignaturesDistinct(t *testing.T) {
	sigA := signatureOf(Performance, "openj9like", "methodA", "ratio2^3")
	sigB := signatureOf(Performance, "openj9like", "methodB", "ratio2^3")
	sigC := signatureOf(Performance, "openj9like", "methodA", "ratio2^7")
	if sigA == sigB {
		t.Error("different offending methods produced equal signatures")
	}
	if sigA == sigC {
		t.Error("different slowdown buckets produced equal signatures")
	}

	mk := func(sig string) Finding {
		return Finding{Kind: Performance, Profile: "openj9like", Signature: sig}
	}
	m := newMerger(CampaignOptions{
		Options: Options{Profile: profile(t, "openj9like")},
		Seeds:   2,
	}, time.Now())
	m.add(seedOutcome{idx: 0, res: &Result{
		Runs:          4,
		Findings:      []Finding{mk(sigA), mk(sigB)},
		MutantSources: []string{"", ""},
	}})
	m.add(seedOutcome{idx: 1, res: &Result{
		Runs:          2,
		Findings:      []Finding{mk(sigA)},
		MutantSources: []string{""},
	}})
	if len(m.stats.Distinct) != 2 {
		t.Fatalf("got %d distinct findings, want 2 (two distinct perf bugs)", len(m.stats.Distinct))
	}
	if m.stats.Duplicates != 1 {
		t.Errorf("got %d duplicates, want 1 (sigA manifested twice)", m.stats.Duplicates)
	}
}

// TestPerfFindingAttribution exercises the attribution path: when the
// timed-out run kept no trace, perfFinding reruns with tracing and
// names the hottest method in both Component and signature.
func TestPerfFindingAttribution(t *testing.T) {
	src := `class T {
        long spin(int n) {
            long acc = 0;
            for (int i = 0; i < n; i++) { acc += i * 7; }
            return acc;
        }
        void main() {
            long t = 0;
            for (int k = 0; k < 5000; k++) { t += spin(1000); }
            print(t);
        }
    }`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Profile: profile(t, "hotspotlike")}.withDefaults()
	mbp := Compile(prog)
	out := &vm.Output{Term: vm.TermTimeout, Steps: o.StepLimit}
	intOut := &vm.Output{Term: vm.TermNormal, Steps: o.StepLimit / 100}
	res := &Result{}
	f := perfFinding(o, nil, mbp, 42, 0, out, intOut, nil, res)
	if res.Runs != 1 {
		t.Errorf("attribution rerun not counted: Runs=%d", res.Runs)
	}
	if f.Component == "" || f.Component == "unknown" {
		t.Errorf("offending method not attributed: Component=%q", f.Component)
	}
	if f.Kind != Performance || f.SeedID != 42 {
		t.Errorf("finding misbuilt: %+v", f)
	}
	want := signatureOf(Performance, "hotspotlike", f.Component, "ratio2^6")
	if f.Signature != want {
		t.Errorf("Signature = %q, want %q", f.Signature, want)
	}
}

func TestStepRatioBucket(t *testing.T) {
	cases := []struct {
		compiled, interp int64
		want             int
	}{
		{100, 100, 0},
		{100, 51, 0},
		{200, 100, 1},
		{1000, 100, 3},
		{1 << 20, 1, 20},
		{100, 0, 6}, // zero interp steps clamps to 1
		{50, 100, 0},
	}
	for _, c := range cases {
		if got := stepRatioBucket(c.compiled, c.interp); got != c.want {
			t.Errorf("stepRatioBucket(%d, %d) = %d, want %d", c.compiled, c.interp, got, c.want)
		}
	}
}
