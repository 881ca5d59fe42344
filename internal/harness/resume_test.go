package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"artemis/internal/jonm"
	"artemis/internal/journal"
	"artemis/internal/lang/parser"
	"artemis/internal/reduce"
	"artemis/internal/vm"
)

// resumeOpts is the shared campaign configuration for the resume
// suite: metrics on and comparative on, so every deterministic output
// surface (CampaignStats, Table 4 columns, -metrics JSON) is
// exercised across the interrupt+resume boundary.
func resumeOpts(t *testing.T, seeds int) CampaignOptions {
	t.Helper()
	return CampaignOptions{
		Options: Options{
			Profile: profile(t, "openj9like"), MaxIter: 3, Buggy: true,
			CollectMetrics: true,
		},
		Seeds:       seeds,
		SeedBase:    3,
		Comparative: true,
	}
}

func metricsJSON(t *testing.T, s *CampaignStats) string {
	t.Helper()
	data, err := MetricsReport([]*CampaignStats{s})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestResumeDeterminism is the tentpole acceptance test: a campaign
// killed after k seeds and resumed from its journal must produce
// CampaignStats and -metrics JSON byte-identical to an uninterrupted
// run — at worker counts 1, 2, and 4 — and the resumed journal file
// itself must be byte-identical to the uninterrupted run's journal.
func TestResumeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("resume determinism sweep is slow")
	}
	const total, interrupt = 10, 4

	// Reference: no journal at all (the legacy in-memory path).
	plain := RunCampaign(resumeOpts(t, total))
	wantStats := statsKey(plain)
	wantMetrics := metricsJSON(t, plain)

	for _, workers := range []int{1, 2, 4} {
		t.Run(map[int]string{1: "workers=1", 2: "workers=2", 4: "workers=4"}[workers], func(t *testing.T) {
			dir := t.TempDir()

			// Uninterrupted journaled run.
			straightPath := filepath.Join(dir, "straight.journal")
			straightOpts := resumeOpts(t, total)
			straightOpts.Workers = workers
			straightOpts.JournalPath = straightPath
			straight, err := RunResumableCampaign(straightOpts)
			if err != nil {
				t.Fatal(err)
			}
			if got := statsKey(straight); got != wantStats {
				t.Errorf("journaling changed campaign stats:\n--- plain ---\n%s\n--- journaled ---\n%s", wantStats, got)
			}

			// Interrupted run: the same campaign stopped after
			// `interrupt` seeds (a crash after seed k leaves exactly
			// this journal prefix — the merger journals in seed order).
			resumePath := filepath.Join(dir, "resume.journal")
			partOpts := resumeOpts(t, interrupt)
			partOpts.Workers = workers
			partOpts.JournalPath = resumePath
			if _, err := RunResumableCampaign(partOpts); err != nil {
				t.Fatal(err)
			}

			// Resume to the full seed count.
			resOpts := resumeOpts(t, total)
			resOpts.Workers = workers
			resOpts.JournalPath = resumePath
			resOpts.Resume = true
			resumed, err := RunResumableCampaign(resOpts)
			if err != nil {
				t.Fatal(err)
			}
			if got := statsKey(resumed); got != wantStats {
				t.Errorf("resumed stats diverge from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", wantStats, got)
			}
			if got := metricsJSON(t, resumed); got != wantMetrics {
				t.Errorf("resumed -metrics JSON diverges:\n--- want ---\n%s\n--- got ---\n%s", wantMetrics, got)
			}

			// The journals themselves converge byte for byte.
			sb, err := os.ReadFile(straightPath)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := os.ReadFile(resumePath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb, rb) {
				t.Errorf("resumed journal differs from straight-through journal (%d vs %d bytes)", len(sb), len(rb))
			}
		})
	}
}

// TestResumeAfterTornRecord simulates the real crash shape: the
// process dies mid-append, leaving a torn final record. Resume must
// drop the torn record, re-run that seed, and still converge on the
// uninterrupted campaign byte for byte.
func TestResumeAfterTornRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("torn-record resume is slow")
	}
	const total, interrupt = 8, 3
	plain := RunCampaign(resumeOpts(t, total))

	dir := t.TempDir()
	path := filepath.Join(dir, "torn.journal")
	partOpts := resumeOpts(t, interrupt)
	partOpts.JournalPath = path
	if _, err := RunResumableCampaign(partOpts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil { // tear the last record
		t.Fatal(err)
	}

	resOpts := resumeOpts(t, total)
	resOpts.JournalPath = path
	resOpts.Resume = true
	resOpts.Workers = 2
	resumed, err := RunResumableCampaign(resOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := statsKey(resumed), statsKey(plain); got != want {
		t.Errorf("torn-tail resume diverges:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestResumeConfigMismatch: a journal written under one campaign
// configuration must refuse to resume under another — splicing
// incompatible campaigns would corrupt results silently.
func TestResumeConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mismatch.journal")
	opts := resumeOpts(t, 2)
	opts.JournalPath = path
	if _, err := RunResumableCampaign(opts); err != nil {
		t.Fatal(err)
	}
	bad := resumeOpts(t, 4)
	bad.JournalPath = path
	bad.Resume = true
	bad.Options.MaxIter = 5 // changes per-seed outcomes
	if _, err := RunResumableCampaign(bad); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("config-mismatch resume: got %v, want mismatch error", err)
	}
}

// TestResumeMutationConfigMismatch: the mutator list and skeleton
// synthesis change every mutant, so a journal written under either must
// refuse to resume under the defaults instead of splicing two
// campaigns. At their defaults both stay out of the header, which is
// what keeps default journals byte-identical to older ones.
func TestResumeMutationConfigMismatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(o *Options)
	}{
		{"mutators", func(o *Options) { o.Mutators = []jonm.MutatorName{jonm.LI} }},
		{"skeletons", func(o *Options) { o.DisableSkeletons = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ablation.journal")
			opts := resumeOpts(t, 1)
			opts.JournalPath = path
			tc.set(&opts.Options)
			if _, err := RunResumableCampaign(opts); err != nil {
				t.Fatal(err)
			}
			def := resumeOpts(t, 2)
			def.JournalPath = path
			def.Resume = true
			if _, err := RunResumableCampaign(def); err == nil || !strings.Contains(err.Error(), "mismatch") {
				t.Errorf("resume under the default %s: got %v, want mismatch error", tc.name, err)
			}
		})
	}
	data, err := json.Marshal(headerFor(resumeOpts(t, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("mutators")) || bytes.Contains(data, []byte("skeletons")) {
		t.Errorf("default header names mutation defaults: %s", data)
	}
}

// TestJournalRefusesClobber: without Resume, an existing journal is
// prior work and must not be overwritten.
func TestJournalRefusesClobber(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "precious.journal")
	opts := resumeOpts(t, 2)
	opts.JournalPath = path
	if _, err := RunResumableCampaign(opts); err != nil {
		t.Fatal(err)
	}
	again := resumeOpts(t, 2)
	again.JournalPath = path
	if _, err := RunResumableCampaign(again); err == nil {
		t.Error("second campaign clobbered an existing journal without -resume")
	}
}

// TestResumeFreshJournal: Resume against a journal that does not
// exist yet starts a fresh campaign (so -resume is safe to pass
// unconditionally in crontab-style campaign loops).
func TestResumeFreshJournal(t *testing.T) {
	dir := t.TempDir()
	opts := resumeOpts(t, 2)
	opts.JournalPath = filepath.Join(dir, "new.journal")
	opts.Resume = true
	stats, err := RunResumableCampaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Seeds != 2 {
		t.Errorf("fresh resume ran %d seeds, want 2", stats.Seeds)
	}
	rec, err := journal.Recover(opts.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 3 { // header + 2 seeds
		t.Errorf("fresh resume journal has %d records, want 3", len(rec.Records))
	}
}

// TestCorpusEntries drives the corpus acceptance criterion: every
// novel finding signature yields an entry holding the original
// reproducer, and every auto-reduced reproducer still triggers the
// exact signature it was filed under.
func TestCorpusEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus campaign is slow")
	}
	dir := t.TempDir()
	opts := resumeOpts(t, 10)
	opts.Comparative = false
	opts.CorpusDir = filepath.Join(dir, "corpus")
	opts.ReduceBudget = 24 // keep the test fast; determinism doesn't depend on it
	stats, err := RunResumableCampaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Distinct) == 0 {
		t.Fatal("campaign found nothing; corpus assertions would be vacuous")
	}

	kc := KeepConfig{
		Profile:   opts.Options.Profile,
		Bugs:      opts.Options.bugSet(),
		StepLimit: opts.Options.StepLimit,
	}
	reducedSeen := false
	for _, f := range stats.Distinct {
		entry := filepath.Join(opts.CorpusDir, EntryName(f.Signature))
		detail, err := os.ReadFile(filepath.Join(entry, "finding.json"))
		if err != nil {
			t.Errorf("signature %q: no corpus entry: %v", f.Signature, err)
			continue
		}
		var cf struct {
			Signature string `json:"signature"`
			Reduced   bool   `json:"reduced"`
		}
		if err := json.Unmarshal(detail, &cf); err != nil {
			t.Errorf("entry %s: bad finding.json: %v", entry, err)
			continue
		}
		if cf.Signature != f.Signature {
			t.Errorf("entry %s: signature %q, want %q", entry, cf.Signature, f.Signature)
		}
		if _, err := os.Stat(filepath.Join(entry, "seed.mj")); err != nil {
			t.Errorf("entry %s: missing seed.mj", entry)
		}
		if f.MutantID >= 0 {
			if _, err := os.Stat(filepath.Join(entry, "mutant.mj")); err != nil {
				t.Errorf("entry %s: missing mutant.mj for mutant-triggered finding", entry)
			}
		}
		if !cf.Reduced {
			continue
		}
		reducedSeen = true
		src, err := os.ReadFile(filepath.Join(entry, "reduced.mj"))
		if err != nil {
			t.Errorf("entry %s: finding.json claims a reduced reproducer but reduced.mj is missing", entry)
			continue
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			t.Errorf("entry %s: reduced.mj does not parse: %v", entry, err)
			continue
		}
		keep := keepForFinding(kc, f.Finding)
		if keep == nil {
			t.Errorf("entry %s: reduced entry for kind %s which has no predicate", entry, f.Kind)
			continue
		}
		if !keep(prog, nil) {
			t.Errorf("entry %s: reduced reproducer no longer triggers signature %q", entry, f.Signature)
		}
	}
	if !reducedSeen {
		t.Error("no corpus entry was auto-reduced; the reduction stage never fired")
	}
}

// TestCorpusIdempotentAcrossResume: replayed findings (cached seed
// outcomes) must not re-reduce or rewrite completed corpus entries.
func TestCorpusIdempotentAcrossResume(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus resume campaign is slow")
	}
	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpus")
	path := filepath.Join(dir, "c.journal")

	// Seed index 7 is the first finder in this configuration, so the
	// 8-seed prefix deterministically populates the corpus before the
	// interrupt.
	part := resumeOpts(t, 8)
	part.Comparative = false
	part.JournalPath = path
	part.CorpusDir = corpusDir
	part.ReduceBudget = 24
	if _, err := RunResumableCampaign(part); err != nil {
		t.Fatal(err)
	}
	before := corpusSnapshot(t, corpusDir)
	if len(before) == 0 {
		t.Fatal("interrupted campaign produced no corpus entries to replay")
	}

	full := resumeOpts(t, 10)
	full.Comparative = false
	full.JournalPath = path
	full.CorpusDir = corpusDir
	full.ReduceBudget = 24
	full.Resume = true
	if _, err := RunResumableCampaign(full); err != nil {
		t.Fatal(err)
	}
	after := corpusSnapshot(t, corpusDir)
	for name, sum := range before {
		if after[name] != sum {
			t.Errorf("corpus file %s changed across resume", name)
		}
	}
}

// TestCorpusDeterministicAcrossWorkers: the auto-reducer tests as many
// candidates at once as the campaign has workers, yet every corpus
// file — seed, mutant, reduced reproducer, finding.json and blame.json
// — is byte-identical at workers 1, 2 and 4.
func TestCorpusDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("three corpus campaigns are slow")
	}
	var want map[string]string
	for _, workers := range []int{1, 2, 4} {
		dir := filepath.Join(t.TempDir(), "corpus")
		_, err := RunResumableCampaign(CampaignOptions{
			Options:   Options{Profile: profile(t, "openj9like"), Buggy: true, StepLimit: 2_000_000},
			Seeds:     9,
			SeedBase:  20057,
			Workers:   workers,
			CorpusDir: dir,
			Blame:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := corpusSnapshot(t, dir)
		if workers == 1 {
			want = got
			reduced, blamed := 0, 0
			for name := range got {
				switch filepath.Base(name) {
				case "reduced.mj":
					reduced++
				case "blame.json":
					blamed++
				}
			}
			if reduced == 0 || blamed == 0 {
				t.Fatalf("corpus holds %d reduced reproducers and %d blame files; the comparison would be vacuous", reduced, blamed)
			}
			continue
		}
		for name, data := range want {
			if got[name] != data {
				t.Errorf("workers=%d: corpus file %s differs from workers=1", workers, name)
			}
		}
		if len(got) != len(want) {
			t.Errorf("workers=%d: %d corpus files, workers=1 wrote %d", workers, len(got), len(want))
		}
	}
}

// corpusSnapshot maps every corpus file to its content for
// modification checks.
func corpusSnapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	snap := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return snap
		}
		t.Fatal(err)
	}
	for _, e := range entries {
		files, err := os.ReadDir(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			p := filepath.Join(dir, e.Name(), f.Name())
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			snap[filepath.Join(e.Name(), f.Name())] = string(data)
		}
	}
	return snap
}

// TestKeepPredicateModes covers the shared predicate builder at the
// unit level with hand-built programs (no campaign needed).
func TestKeepPredicateModes(t *testing.T) {
	prof := profile(t, "openj9like")
	kc := KeepConfig{Profile: prof, Bugs: prof.BugSet(), StepLimit: 1_000_000}
	benign := mustParse(t, `class T { void main() { print(1); } }`)
	modes := map[string]reduce.Predicate{}
	for _, mode := range []string{"crash", "diff"} {
		keep, err := kc.TestForMode(mode)
		if err != nil {
			t.Fatal(err)
		}
		modes[mode] = keep.Predicate()
		if modes[mode](benign) {
			t.Errorf("%s mode kept a benign program", mode)
		}
	}
	if _, err := kc.TestForMode("nope"); err == nil {
		t.Error("TestForMode accepted an unknown mode")
	}
	// Signature predicates must reject programs whose behaviour is
	// fine even when the signature string is arbitrary.
	if kc.CrashSignature("crash|openj9like|X|y")(benign) {
		t.Error("crash-signature predicate kept a non-crashing program")
	}
	if kc.MiscompileSignature("miscompile|openj9like|normal-vs-normal")(benign) {
		t.Error("miscompile-signature predicate kept a clean program")
	}
	if out := kc.runJIT(benign, nil); out.Term != vm.TermNormal {
		t.Errorf("benign program terminated %v", out.Term)
	}

	// A program that loops past StepLimit: every predicate rejects it,
	// and the comparing predicates skip the interpreted run, which
	// could not change their verdict.
	loop := mustParse(t, `class T { void main() { int i = 0; while (true) { i = i + 1; } } }`)
	for name, keep := range map[string]reduce.Predicate{
		"crash":                modes["crash"],
		"diff":                 modes["diff"],
		"miscompile-signature": kc.MiscompileSignature("miscompile|openj9like|normal-vs-timeout"),
	} {
		if keep(loop) {
			t.Errorf("%s predicate kept a looping program", name)
		}
	}
	if jit, interp := kc.runBoth(loop, nil); jit.Term != vm.TermTimeout || interp != nil {
		t.Errorf("runBoth on a looping program: JIT run %v, interpreted run %v; want timeout and skipped", jit.Term, interp)
	}
}
