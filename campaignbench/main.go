package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// runDeadline bounds one workload's run, children included, below the
// three minutes a run may take.
const runDeadline = 170 * time.Second

// setupProbes is how many set-up-only children a run starts beside
// its rounds, so set-up time is a median over at least this many.
const setupProbes = 9

const buildDir = ".bench_build"

type config struct {
	exe      string
	seed     int64
	window   time.Duration
	trace    bool
	out      string
	spans    string
	suiteOut string
}

// report is the JSON record of one workload's run (-out).
type report struct {
	Host     host     `json:"host"`
	Workload workload `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`

	SetupNs []int64         `json:"setup_ns"`
	Rounds  []*roundResult  `json:"rounds"`
	Traced  []*tracedResult `json:"traced,omitempty"`

	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// host stamps where a report was measured.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
}

func hostStamp() host {
	h := host{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

func main() {
	workloadName := flag.String("workload", "", "workload to run (default: every workload in turn)")
	seed := flag.Int64("seed", 0, "benchmark seed; draws and orders the blocks of each workload's suite")
	seconds := flag.Float64("seconds", 20, "size of an untraced run: whole passes over the drawn blocks that took about this long when the suite was recorded")
	trace := flag.Int("trace", 0, "1: replay a fixed set of rounds through the traced replica and report per-layer metrics")
	out := flag.String("out", "", "report JSON path (default "+buildDir+"/reports/<workload>-seed<S>-trace<T>.json)")
	spans := flag.String("spans", "", "span file of a traced run (default "+buildDir+"/trace/<workload>-seed<S>.json)")
	suiteOut := flag.String("suite-out", "", "record the workload's suite in this file: blocks adding up to twice -seconds")

	childMode := flag.String("child", "", "internal: run one child process (setup, round or traced)")
	seedBase := flag.Int64("seedbase", 0, "internal: first fuzzer seed of a child's round")
	roundSeeds := flag.Int("roundseeds", 0, "internal: fuzzer seeds of a child's round")
	t0 := flag.Int64("t0", 0, "internal: parent's wall clock at a child's exec, Unix ns")
	dir := flag.String("dir", "", "internal: a child's work directory")
	flag.Parse()

	if *childMode != "" {
		w, err := workloadByName(*workloadName)
		if err == nil {
			err = runChild(childSpec{mode: *childMode, w: w, seedBase: *seedBase, seeds: *roundSeeds, t0: *t0, dir: *dir})
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *suiteOut != "" && *trace != 0 {
		fatal(fmt.Errorf("-suite-out records untraced rounds"))
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	cfg := config{
		exe: exe, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, out: *out, spans: *spans, suiteOut: *suiteOut,
	}
	run := workloads
	if *workloadName != "" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			fatal(err)
		}
		run = []workload{w}
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	if cfg.suiteOut != "" {
		for _, w := range run {
			if err := recordSuite(cfg, w, cfg.suiteOut); err != nil {
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
		}
		return
	}
	for _, w := range run {
		rep, err := runWorkload(cfg, w)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		final.Correct = final.Correct && rep.Correct
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
		for _, d := range defs {
			fmt.Printf("%s\t%s\t%v\t%s\n", w.Name, d.Name, rep.Metrics[d.Name], d.Unit)
			key := d.Name
			if len(run) > 1 {
				key = w.Name + "/" + d.Name
			}
			final.Metrics[key] = value{rep.Metrics[d.Name], d.Unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

// runWorkload measures one workload: set-up probes, then whole passes
// over the drawn blocks, one round per block (or, traced, the
// workload's fixed number of rounds through both the campaign and the
// replica), then the output checks.
func runWorkload(cfg config, w workload) (*report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	s, err := loadSuites(suiteJSON)
	if err != nil {
		return nil, err
	}
	blocks, err := s.draw(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{Host: hostStamp(), Workload: w, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Trace: cfg.trace}
	if rep.SetupNs, err = cfg.setupProbes(ctx, w); err != nil {
		return nil, err
	}
	rounds := len(blocks) * s.passes(w, cfg.window)
	if cfg.trace {
		rounds = w.TraceRounds
	}
	for r := 0; r < rounds; r++ {
		b := blocks[r%len(blocks)]
		u, err := cfg.round(ctx, w, r, b.SeedBase)
		if err != nil {
			return nil, err
		}
		rep.Rounds = append(rep.Rounds, u)
		set := signatureSet(u.Distinct)
		if set != b.sigSet() {
			rep.Problems = append(rep.Problems, fmt.Sprintf("round %d at seed %d: signature set %d/%s, golden %d/%s",
				r, b.SeedBase, set.Count, set.SHA256[:12], b.Count, b.SHA256[:12]))
		}
		if !cfg.trace {
			continue
		}
		spec := childSpec{mode: "traced", w: w, seedBase: b.SeedBase, seeds: w.RoundSeeds}
		tr := &tracedResult{}
		if tr.Usage, err = cfg.child(ctx, spec, tr); err != nil {
			return nil, err
		}
		rep.Traced = append(rep.Traced, tr)
		if err := compareReplica(u, tr); err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("round %d: traced replica does not reproduce the campaign: %v", r, err))
		}
	}
	rep.Problems = append(rep.Problems, checkOutputs(w, rep)...)
	rep.Correct = len(rep.Problems) == 0
	for _, p := range rep.Problems {
		fmt.Fprintf(os.Stderr, "%s: INCORRECT: %s\n", w.Name, p)
	}
	if cfg.trace {
		rep.Metrics = layerMetrics(rep.Rounds, rep.Traced)
		if err := writeSpans(cfg, w, rep); err != nil {
			return nil, err
		}
	} else {
		rep.Metrics = endToEndMetrics(rep.SetupNs, rep.Rounds)
	}
	return rep, writeReport(cfg, w, rep)
}

// setupProbes samples set-up time in children that stop where the
// campaign would start.
func (cfg config) setupProbes(ctx context.Context, w workload) ([]int64, error) {
	var ns []int64
	for i := 0; i < setupProbes; i++ {
		var u roundResult
		if _, err := cfg.child(ctx, childSpec{mode: "setup", w: w}, &u); err != nil {
			return nil, err
		}
		ns = append(ns, u.SetupNs)
	}
	return ns, nil
}

// round runs one untraced campaign round in a fresh child and work
// directory.
func (cfg config) round(ctx context.Context, w workload, r int, seedBase int64) (*roundResult, error) {
	dir := filepath.Join(buildDir, "work", fmt.Sprintf("%d-r%03d", os.Getpid(), r))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	u := &roundResult{}
	var err error
	if u.Usage, err = cfg.child(ctx, childSpec{mode: "round", w: w, seedBase: seedBase, seeds: w.RoundSeeds, dir: dir}, u); err != nil {
		return nil, err
	}
	set := signatureSet(u.Distinct)
	fmt.Fprintf(os.Stderr, "%s round %d: seeds %d-%d, %d mutants in %.2fs, %d distinct findings, signature set %s\n",
		w.Name, r, seedBase, seedBase+int64(w.RoundSeeds)-1, u.Mutants, float64(u.ElapsedNs)/1e9, set.Count, set.SHA256[:12])
	return u, nil
}

// checkOutputs runs the output checks of every round and counts the
// run's attempted and failed operations.
func checkOutputs(w workload, rep *report) []string {
	var problems []string
	for _, u := range rep.Rounds {
		attempted, failed := opFailures(u)
		rep.Attempted += attempted
		rep.Failed += failed
		if u.InternalErrors > 0 {
			problems = append(problems, fmt.Sprintf("round at seed %d: %d Harness Internal Error findings", u.SeedBase, u.InternalErrors))
		}
		if w.Triage {
			problems = append(problems, checkCorpus(u)...)
		}
		for _, f := range u.Distinct {
			if err := verifyFinding(w, f); err != nil {
				problems = append(problems, fmt.Sprintf("finding %q (seed %d, mutant %d): %v", f.Signature, f.SeedID, f.MutantID, err))
			}
		}
	}
	return problems
}

// recordPasses is how many passes recording makes over a suite's
// blocks. All runs of a block must agree, and its median campaign and
// CPU time are recorded. Whole passes, rather than repeats of one block
// in a row, spread a phase of load on the host over every block alike,
// so it does not skew later draws.
const recordPasses = 5

// recordSuite runs consecutive blocks from the workload's offset until
// the accepted ones add up to twice the window, skipping blocks where
// an operation fails, then makes the remaining passes over them, and
// records them in the suite file at path.
func recordSuite(cfg config, w workload, path string) error {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline+recordPasses*4*cfg.window)
	defer cancel()
	var blocks []block
	var runs [][]*roundResult
	var total float64
	for r := 0; total < 2*cfg.window.Seconds(); r++ {
		seedBase := w.Offset + int64(r*w.RoundSeeds)
		u, err := cfg.round(ctx, w, r, seedBase)
		if err != nil {
			return err
		}
		rep := &report{Rounds: []*roundResult{u}}
		if problems := checkOutputs(w, rep); len(problems) > 0 {
			return fmt.Errorf("block at %d: %v", seedBase, problems)
		}
		if rep.Failed > 0 {
			fmt.Fprintf(os.Stderr, "%s: skipping block at %d: %d failed operations\n", w.Name, seedBase, rep.Failed)
			continue
		}
		set := signatureSet(u.Distinct)
		blocks = append(blocks, block{SeedBase: seedBase, Count: set.Count, SHA256: set.SHA256, Mutants: u.Mutants})
		runs = append(runs, []*roundResult{u})
		total += float64(u.ElapsedNs) / 1e9
	}
	for pass := 1; pass < recordPasses; pass++ {
		for i, b := range blocks {
			u, err := cfg.round(ctx, w, i, b.SeedBase)
			if err != nil {
				return err
			}
			if signatureSet(u.Distinct) != b.sigSet() || u.Mutants != b.Mutants {
				return fmt.Errorf("block at %d: runs disagree", b.SeedBase)
			}
			runs[i] = append(runs[i], u)
		}
	}
	for i := range blocks {
		var elapsed, cpu []float64
		for _, u := range runs[i] {
			elapsed = append(elapsed, float64(u.ElapsedNs)/1e9)
			cpu = append(cpu, float64(u.Usage.CPUNs)/1e9)
		}
		blocks[i].ElapsedS = summarize(elapsed).P50
		blocks[i].CPUS = summarize(cpu).P50
	}
	s := suites{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if s, err = loadSuites(data); err != nil {
			return err
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	s[w.Name] = blocks
	return writeJSON(path, s)
}

// child runs one child process of spec, decodes its JSON result into
// out, and returns the process's resource usage.
func (cfg config) child(ctx context.Context, spec childSpec, out any) (usage, error) {
	t0 := time.Now().UnixNano()
	cmd := exec.CommandContext(ctx, cfg.exe,
		"-child", spec.mode, "-workload", spec.w.Name,
		"-seedbase", strconv.FormatInt(spec.seedBase, 10), "-roundseeds", strconv.Itoa(spec.seeds),
		"-dir", spec.dir, "-t0", strconv.FormatInt(t0, 10))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return usage{}, fmt.Errorf("%s child at seed %d: %w", spec.mode, spec.seedBase, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return usage{}, fmt.Errorf("%s child at seed %d: %w", spec.mode, spec.seedBase, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}, fmt.Errorf("no resource usage for %s child", spec.mode)
	}
	return usage{
		CPUNs:    ru.Utime.Nano() + ru.Stime.Nano(),
		MaxRSSKB: ru.Maxrss,
	}, nil
}

func writeReport(cfg config, w workload, rep *report) error {
	path := cfg.out
	if path == "" {
		trace := 0
		if cfg.trace {
			trace = 1
		}
		path = filepath.Join(buildDir, "reports", fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, cfg.seed, trace))
	}
	return writeJSON(path, rep)
}

// writeSpans writes a traced run's spans, kept in memory until now,
// and strips them from the report.
func writeSpans(cfg config, w workload, rep *report) error {
	path := cfg.spans
	if path == "" {
		path = filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", w.Name, cfg.seed))
	}
	type round struct {
		SeedBase int64  `json:"seed_base"`
		Spans    []span `json:"spans"`
	}
	doc := struct {
		Host     host     `json:"host"`
		Workload string   `json:"workload"`
		Layers   []string `json:"layers"`
		Rounds   []round  `json:"rounds"`
	}{Host: rep.Host, Workload: w.Name, Layers: layerNames[:]}
	for i, tr := range rep.Traced {
		doc.Rounds = append(doc.Rounds, round{SeedBase: rep.Rounds[i].SeedBase, Spans: tr.Spans})
		tr.Spans = nil
	}
	fmt.Fprintf(os.Stderr, "%s: spans written to %s\n", w.Name, path)
	return writeJSON(path, doc)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaignbench:", err)
	os.Exit(1)
}
