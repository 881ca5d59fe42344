package main

import "testing"

// TestCheckCounts: a negative -seeds or -steps and an -iters below 1
// are usage errors; -seeds 0 is an empty campaign and -steps 0 the
// default budget.
func TestCheckCounts(t *testing.T) {
	for _, tc := range []struct {
		seeds, iters int
		steps        int64
		ok           bool
	}{
		{seeds: 100, iters: 8, steps: 0, ok: true},
		{seeds: 0, iters: 1, steps: 1, ok: true},
		{seeds: -3, iters: 8, steps: 0},
		{seeds: 2, iters: 8, steps: -1},
		{seeds: 2, iters: 0, steps: 0},
		{seeds: 2, iters: -1, steps: 0},
	} {
		err := checkCounts(tc.seeds, tc.iters, tc.steps)
		if (err == nil) != tc.ok {
			t.Errorf("checkCounts(seeds %d, iters %d, steps %d) = %v, want ok=%v", tc.seeds, tc.iters, tc.steps, err, tc.ok)
		}
	}
}
