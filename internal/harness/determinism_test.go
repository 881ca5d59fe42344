package harness

import "testing"

// TestCampaignDeterminism: two identical campaigns must produce
// byte-identical finding lists — the whole stack (fuzzer, mutator, VM,
// JIT) is seeded and deterministic.
func TestCampaignDeterminism(t *testing.T) {
	prof := profile(t, "openj9like")
	run := func() []DedupFinding {
		stats := RunCampaign(CampaignOptions{
			Options: Options{Profile: prof, MaxIter: 4, Buggy: true},
			Seeds:   15,
		})
		return stats.Distinct
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different finding counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Signature != b[i].Signature || a[i].Detail != b[i].Detail || a[i].Count != b[i].Count {
			t.Errorf("finding %d differs:\n  %+v\n  %+v", i, a[i].Finding, b[i].Finding)
		}
	}
}
