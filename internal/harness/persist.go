// Campaign persistence: the seed-outcome journal that makes
// RunCampaign crash-safe and resumable. Every merged seed is framed
// as one JSON record (see internal/journal for the on-disk framing)
// carrying exactly what the deterministic merger consumes — the
// Result, the comparative-baseline verdict, and the per-seed metrics
// delta — so replaying journaled records through the same seed-order
// merger reproduces CampaignStats and the -metrics JSON byte for
// byte, at any worker count.
//
// The journal's first record is a header fingerprinting the campaign
// configuration; resuming under a different configuration would
// silently splice two incompatible campaigns, so a mismatch is an
// error instead.

package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"

	"artemis/internal/journal"
)

// journalVersion guards the record schema; bump on incompatible
// changes so a stale journal fails loudly instead of mis-merging.
// Dropping a field is compatible: older records still decode (the
// field is ignored), so the version stays.
const journalVersion = 1

// journalHeader fingerprints the campaign configuration a journal
// belongs to. Every field that changes per-seed outcomes is included;
// Workers and Progress are not (they cannot change outcomes — that is
// the deterministic-merge invariant). Mutators is the mutator list
// comma-joined in the given order (jonm draws from it by index), a
// string so the header stays comparable with !=; an explicit full list
// fingerprints apart from the unset default, which refuses that resume
// rather than splicing. The mutation fields are omitted at their
// defaults so that journals written before they were fingerprinted
// still resume.
type journalHeader struct {
	Kind             string `json:"kind"` // "header"
	Version          int    `json:"version"`
	Profile          string `json:"profile"`
	SeedBase         int64  `json:"seed_base"`
	MaxIter          int    `json:"max_iter"`
	StepLimit        int64  `json:"step_limit"`
	Buggy            bool   `json:"buggy"`
	Comparative      bool   `json:"comparative"`
	CollectMetrics   bool   `json:"collect_metrics"`
	Mutators         string `json:"mutators,omitempty"`
	DisableSkeletons bool   `json:"disable_skeletons,omitempty"`
}

// seedRecord is one journaled seed outcome.
type seedRecord struct {
	Kind     string  `json:"kind"` // "seed"
	Idx      int     `json:"idx"`
	SeedID   int64   `json:"seed_id"`
	Res      *Result `json:"res"`
	TradHit  bool    `json:"trad_hit,omitempty"`
	TradRuns int     `json:"trad_runs,omitempty"`
}

// headerFor builds the configuration fingerprint (opts.Options must
// already have defaults applied, so equivalent explicit and defaulted
// configurations fingerprint identically).
func headerFor(opts CampaignOptions) journalHeader {
	mutators := make([]string, len(opts.Options.Mutators))
	for i, m := range opts.Options.Mutators {
		mutators[i] = string(m)
	}
	return journalHeader{
		Kind:             "header",
		Version:          journalVersion,
		Profile:          opts.Options.Profile.Name,
		SeedBase:         opts.SeedBase,
		MaxIter:          opts.Options.MaxIter,
		StepLimit:        opts.Options.StepLimit,
		Buggy:            opts.Options.Buggy,
		Comparative:      opts.Comparative,
		CollectMetrics:   opts.Options.CollectMetrics,
		Mutators:         strings.Join(mutators, ","),
		DisableSkeletons: opts.Options.DisableSkeletons,
	}
}

func appendJSON(w *journal.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return w.Append(payload)
}

// appendSeedRecord journals one freshly computed seed outcome.
func appendSeedRecord(w *journal.Writer, opts CampaignOptions, out seedOutcome) error {
	return appendJSON(w, seedRecord{
		Kind:     "seed",
		Idx:      out.idx,
		SeedID:   opts.SeedBase + int64(out.idx),
		Res:      out.res,
		TradHit:  out.tradHit,
		TradRuns: out.tradRuns,
	})
}

// openCampaignJournal opens (or resumes) the campaign journal and
// returns the outcomes cached from a previous run, keyed by seed
// index. On a fresh journal the header is written immediately so even
// a campaign killed on seed 0 leaves a resumable file.
func openCampaignJournal(opts CampaignOptions) (map[int]seedOutcome, *journal.Writer, error) {
	hdr := headerFor(opts)
	if !opts.Resume {
		w, err := journal.Create(opts.JournalPath)
		if err != nil {
			return nil, nil, err
		}
		if err := appendJSON(w, hdr); err != nil {
			w.Close()
			return nil, nil, err
		}
		return nil, w, nil
	}

	if _, err := os.Stat(opts.JournalPath); errors.Is(err, os.ErrNotExist) {
		// Resuming a journal that never got written is a fresh start:
		// the previous attempt died before creating the file (or never
		// ran). This makes "-resume" safe to pass unconditionally.
		opts.Resume = false
		return openCampaignJournal(opts)
	}
	rec, w, err := journal.Resume(opts.JournalPath)
	if err != nil {
		return nil, nil, err
	}
	if len(rec.Records) == 0 {
		// The file exists but not even the header survived (torn on
		// the very first write). Start over within the same file.
		if err := appendJSON(w, hdr); err != nil {
			w.Close()
			return nil, nil, err
		}
		return nil, w, nil
	}

	var prev journalHeader
	if err := json.Unmarshal(rec.Records[0], &prev); err != nil || prev.Kind != "header" {
		w.Close()
		return nil, nil, fmt.Errorf("journal %s: first record is not a campaign header", opts.JournalPath)
	}
	if prev != hdr {
		w.Close()
		return nil, nil, fmt.Errorf("journal %s: campaign configuration mismatch: journal was written by %+v, resume requested %+v",
			opts.JournalPath, prev, hdr)
	}

	cached := make(map[int]seedOutcome, len(rec.Records)-1)
	for i, payload := range rec.Records[1:] {
		var sr seedRecord
		if err := json.Unmarshal(payload, &sr); err != nil {
			w.Close()
			return nil, nil, fmt.Errorf("journal %s: seed record %d: %w", opts.JournalPath, i, err)
		}
		if sr.Kind != "seed" || sr.Res == nil {
			w.Close()
			return nil, nil, fmt.Errorf("journal %s: seed record %d is malformed (kind=%q)", opts.JournalPath, i, sr.Kind)
		}
		cached[sr.Idx] = seedOutcome{
			idx:      sr.Idx,
			res:      sr.Res,
			tradHit:  sr.TradHit,
			tradRuns: sr.TradRuns,
			cached:   true,
		}
	}
	return cached, w, nil
}
