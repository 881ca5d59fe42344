package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"artemis/internal/harness"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
	"artemis/internal/profiles"
	"artemis/internal/reduce"
)

// gcmReproducer is the flagship GCM store-sink reproducer (JDK-8288975,
// the paper's Figure 2) with a driver loop hot enough to tier up: its
// compiled output differs from interpretation on hotspotlike.
const gcmReproducer = `class T {
    int l = 0;
    int unused = 3;
    void g() {
        for (int i = 0; i < 10; i++) {
            for (int w = 0; w < 13; w += 4) { }
            l += 2;
        }
    }
    void main() {
        for (int r = 0; r < 2000; r++) { l = 0; g(); }
        print(l);
        print(unused);
    }
}`

// gcmReducedSHA256 is the SHA-256 of the reduced gcmReproducer that
// mjreduce prints on hotspotlike. The reference reduction below uses
// the same KeepConfig predicate, verdict memo included, so only this
// digest catches a memo or window that moves both sides together.
const gcmReducedSHA256 = "7f3b681bd0648444dd5a200c985886ee5ca02873abd49c7a70f822bf127e015f"

// TestOutputMatchesSequentialReduction: mjreduce tests several
// candidates at once, but what it prints is byte for byte the program
// a one-at-a-time reduction under the same predicate produces, and
// that program is the pinned one.
func TestOutputMatchesSequentialReduction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gcm.mj")
	if err := os.WriteFile(path, []byte(gcmReproducer), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(gcmReproducer)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profiles.Get("hotspotlike")
	if err != nil {
		t.Fatal(err)
	}
	diff, err := harness.KeepConfig{Profile: prof, Bugs: prof.BugSet()}.TestForMode("diff")
	if err != nil {
		t.Fatal(err)
	}
	want, ok := reduce.ReduceChecked(prog, diff.Predicate(), reduce.Options{MaxRounds: 12})
	if !ok {
		t.Fatal("the GCM reproducer no longer shows a discrepancy on hotspotlike")
	}
	if ast.ProgramSize(want) >= ast.ProgramSize(prog) {
		t.Fatal("the sequential reduction removed nothing; the comparison would be vacuous")
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(ast.Print(want)))); sum != gcmReducedSHA256 {
		t.Errorf("reduced GCM reproducer has SHA-256 %s, want %s:\n%s", sum, gcmReducedSHA256, ast.Print(want))
	}
	for _, workers := range []int{1, 2, 4} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-profile", "hotspotlike", path}, &stdout, &stderr, workers); code != 0 {
			t.Fatalf("workers=%d: exit %d: %s", workers, code, stderr.String())
		}
		if stdout.String() != ast.Print(want) {
			t.Errorf("workers=%d: mjreduce printed\n%s\nwant\n%s", workers, stdout.String(), ast.Print(want))
		}
	}
}

// TestBlameReport: -blame localizes the reduced program under the
// campaign's symptom, pinned to its own signature, and reports all
// three dimensions on stderr without touching stdout.
func TestBlameReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gcm.mj")
	if err := os.WriteFile(path, []byte(gcmReproducer), 0o644); err != nil {
		t.Fatal(err)
	}
	var plain, stdout, stderr bytes.Buffer
	if code := run([]string{path}, &plain, io.Discard, 2); code != 0 {
		t.Fatalf("exit %d without -blame", code)
	}
	if code := run([]string{"-blame", path}, &stdout, &stderr, 2); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if stdout.String() != plain.String() {
		t.Errorf("-blame changed stdout:\n%s\nwant\n%s", stdout.String(), plain.String())
	}
	for _, want := range []string{
		"mjreduce: blame: passes gcm ",
		"mjreduce: blame: minimal forced-compilation set {g}",
		"mjreduce: blame: fixed by removing hs-gcm-store-sink",
	} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
}

// TestStepsDefaultsToCampaignBudget: -steps defaults to 0, which
// KeepConfig resolves to the campaign's per-run budget, so a reproducer
// a default campaign found is re-validated under the budget that found
// it. The flag package prints "(default N)" only for a non-zero default.
func TestStepsDefaultsToCampaignBudget(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-h"}, io.Discard, &stderr, 1); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	help := stderr.String()
	i := strings.Index(help, "-steps int")
	if i < 0 {
		t.Fatalf("help lacks -steps:\n%s", help)
	}
	steps, _, _ := strings.Cut(help[i:], "\n  -")
	if strings.Contains(steps, "(default") {
		t.Errorf("-steps has a non-zero default:\n%s", steps)
	}
}

// TestExitStatus: exit 1 is reserved for an input that does not
// trigger the finding; every usage error, an unknown -profile or -mode
// included, exits 2 before any program runs.
func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.mj")
	if err := os.WriteFile(clean, []byte("class T { void main() { print(1); } }"), 0o644); err != nil {
		t.Fatal(err)
	}
	broken := filepath.Join(dir, "broken.mj")
	if err := os.WriteFile(broken, []byte("class T {"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{clean}, 1},
		{[]string{"-mode", "bogus", clean}, 2},
		{[]string{"-profile", "nosuch", clean}, 2},
		{[]string{filepath.Join(dir, "missing.mj")}, 2},
		{[]string{broken}, 2},
		{[]string{clean, clean}, 2},
		{[]string{"-nosuchflag", clean}, 2},
	} {
		var stderr bytes.Buffer
		if code := run(tc.args, io.Discard, &stderr, 1); code != tc.want {
			t.Errorf("mjreduce %s: exit %d, want %d: %s", strings.Join(tc.args, " "), code, tc.want, stderr.String())
		}
	}
}
