// Persistent findings corpus: one directory per novel finding
// signature, holding everything a developer (or a later triage tool)
// needs to act on the report without re-running the campaign —
//
//	<corpus>/<entry>/seed.mj       the generating seed program
//	<corpus>/<entry>/mutant.mj     the mutant that triggered the finding
//	                               (absent when the seed itself crashed)
//	<corpus>/<entry>/reduced.mj    auto-reduced reproducer, present only
//	                               when it provably re-triggers the same
//	                               signature (see keep.go)
//	<corpus>/<entry>/finding.json  the finding detail + reduction report
//	<corpus>/<entry>/blame.json    automatic fault localization (guilty
//	                               pass set, minimal compilation-space
//	                               point, seeded defect that fixes it),
//	                               present when the campaign ran with
//	                               Blame enabled
//
// finding.json is written last, so its presence marks a complete
// entry; a campaign killed mid-entry simply rewrites the entry on
// resume. Entries are keyed by signature, which makes corpus writes
// idempotent across resumed runs and across campaigns sharing a
// corpus directory.

package harness

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"artemis/internal/blame"
	"artemis/internal/fuzz"
	"artemis/internal/lang/ast"
	"artemis/internal/lang/parser"
	"artemis/internal/reduce"
)

// DefaultReduceBudget is the per-finding cap on keep-predicate
// evaluations during in-campaign auto-reduction when
// CampaignOptions.ReduceBudget is 0. Each evaluation costs at most
// two StepLimit-bounded VM runs, so this bounds the stall a novel
// finding can inflict on campaign throughput.
const DefaultReduceBudget = 128

// corpusWriter persists novel findings as they are first seen by the
// deterministic merger (so entry creation order is reproducible).
type corpusWriter struct {
	dir    string
	kc     KeepConfig
	budget int // keep evaluations per finding; <0 disables reduction
	// workers is how many reduction candidates are tested at once: the
	// campaign's worker count, whose seed workers wait on the merger
	// while it reduces.
	workers int
}

func newCorpusWriter(opts CampaignOptions, workers int) (*corpusWriter, error) {
	if err := os.MkdirAll(opts.CorpusDir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus dir: %w", err)
	}
	budget := opts.ReduceBudget
	if budget == 0 {
		budget = DefaultReduceBudget
	}
	return &corpusWriter{
		dir:     opts.CorpusDir,
		kc:      opts.Options.keepConfig(),
		budget:  budget,
		workers: workers,
	}, nil
}

// corpusFinding is the JSON shape of finding.json.
type corpusFinding struct {
	Kind      string `json:"kind"`
	Profile   string `json:"profile"`
	Component string `json:"component,omitempty"`
	Signature string `json:"signature"`
	Detail    string `json:"detail"`
	SeedID    int64  `json:"seed_id"`
	MutantID  int    `json:"mutant_id"`
	// Reduced reports whether reduced.mj exists and re-triggers the
	// signature; ReduceNote says why not when it doesn't.
	Reduced        bool   `json:"reduced"`
	ReduceNote     string `json:"reduce_note,omitempty"`
	SizeStatements int    `json:"size_statements,omitempty"`
	ReducedSize    int    `json:"reduced_size_statements,omitempty"`
}

// EntryName maps a finding signature to its corpus subdirectory: a
// sanitized human-readable prefix plus an FNV hash of the full
// signature for uniqueness (signatures contain characters and lengths
// unfit for paths).
func EntryName(signature string) string {
	h := fnv.New32a()
	h.Write([]byte(signature))
	var b strings.Builder
	dash := false
	for _, r := range signature {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
			dash = false
		default:
			if !dash && b.Len() > 0 {
				b.WriteByte('-')
				dash = true
			}
		}
		if b.Len() >= 48 {
			break
		}
	}
	return fmt.Sprintf("%s-%08x", strings.TrimRight(b.String(), "-"), h.Sum32())
}

// record persists one first-seen finding. mutantSrc is the triggering
// mutant's source ("" when the seed's own default run crashed).
// Idempotent: an entry whose finding.json already exists is left
// untouched, which is what makes resumed campaigns converge on the
// same corpus instead of re-reducing every replayed finding.
//
// It returns the best reproducer source for downstream stages (fault
// localization): the auto-reduced program when reduction succeeded,
// else the mutant, else the seed. On the idempotent-skip path the same
// preference order is read back from the entry, so a resumed campaign
// localizes against exactly the source a fresh one would.
func (c *corpusWriter) record(f Finding, mutantSrc string) (string, error) {
	dir := filepath.Join(c.dir, EntryName(f.Signature))
	if _, err := os.Stat(filepath.Join(dir, "finding.json")); err == nil {
		for _, name := range []string{"reduced.mj", "mutant.mj", "seed.mj"} {
			if b, err := os.ReadFile(filepath.Join(dir, name)); err == nil {
				return string(b), nil
			}
		}
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}

	// The seed program is regenerated from its ID — generation is
	// deterministic, so this is exactly the program the worker ran.
	seedSrc := ast.Print(fuzz.Generate(fuzz.Options{Seed: f.SeedID}))
	if err := os.WriteFile(filepath.Join(dir, "seed.mj"), []byte(seedSrc), 0o644); err != nil {
		return "", err
	}
	reproSrc := seedSrc
	if mutantSrc != "" {
		reproSrc = mutantSrc
		if err := os.WriteFile(filepath.Join(dir, "mutant.mj"), []byte(mutantSrc), 0o644); err != nil {
			return "", err
		}
	}

	cf := corpusFinding{
		Kind:      f.Kind.String(),
		Profile:   f.Profile,
		Component: f.Component,
		Signature: f.Signature,
		Detail:    f.Detail,
		SeedID:    f.SeedID,
		MutantID:  f.MutantID,
	}
	reduced, size, note := c.autoReduce(f, reproSrc)
	cf.ReduceNote = note
	if reduced != nil {
		cf.Reduced = true
		cf.SizeStatements = size
		cf.ReducedSize = ast.ProgramSize(reduced)
		reproSrc = ast.Print(reduced)
		if err := os.WriteFile(filepath.Join(dir, "reduced.mj"), []byte(reproSrc), 0o644); err != nil {
			return "", err
		}
	}

	payload, err := json.MarshalIndent(cf, "", "  ")
	if err != nil {
		return "", err
	}
	// finding.json lands last: the entry's completeness marker.
	if err := os.WriteFile(filepath.Join(dir, "finding.json"), append(payload, '\n'), 0o644); err != nil {
		return "", err
	}
	return reproSrc, nil
}

// writeBlame persists one finding's fault localization as blame.json
// in its corpus entry. Idempotent like record: an existing blame.json
// is left untouched, so resumed campaigns do not churn corpus bytes.
func (c *corpusWriter) writeBlame(signature string, res *blame.Result) error {
	dir := filepath.Join(c.dir, EntryName(signature))
	path := filepath.Join(dir, "blame.json")
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	payload, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(payload, '\n'), 0o644)
}

// autoReduce shrinks the reproducer under the signature-preserving
// predicate, spending at most c.budget predicate evaluations (counted
// as a one-at-a-time reduction counts them, so the reduced program does
// not depend on c.workers), and returns the reduced program with the
// reproducer's statement count. It returns nil (with a reason) when the
// finding kind has no in-campaign predicate, reduction is disabled, or
// the reproducer does not satisfy the predicate standalone (e.g. a
// discrepancy only observable against the original seed reference).
func (c *corpusWriter) autoReduce(f Finding, src string) (*ast.Program, int, string) {
	if c.budget < 0 {
		return nil, 0, "auto-reduction disabled (ReduceBudget < 0)"
	}
	keep := keepForFinding(c.kc, f)
	if keep == nil {
		return nil, 0, fmt.Sprintf("no in-campaign predicate for %s findings", f.Kind)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		// Printed sources always reparse; failure here is a harness
		// bug worth recording, not worth killing the campaign over.
		return nil, 0, fmt.Sprintf("reproducer does not reparse: %v", err)
	}
	reduced, ok := reduce.ReduceParallel(prog, keep, c.workers, reduce.Options{MaxEvals: c.budget})
	if !ok {
		return nil, 0, "reproducer does not re-trigger the signature standalone; stored unreduced"
	}
	return reduced, ast.ProgramSize(prog), ""
}
