# Tier-1 gate plus the extended checks CI runs. The reference host has
# two vCPUs, on which race-enabled campaign tests are slow: every target
# carries an explicit -timeout generous enough for that hardware.

GO      ?= go
TIMEOUT ?= 9000s

.PHONY: all build fmt vet test race resume blame-smoke bench bench-smoke bench-golden ci

all: ci

build:
	$(GO) build ./...

# gofmt -l prints nothing on success; any output fails the gate.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Tier-1 gate: everything must build and every test must pass
# (./... covers internal/journal and the resume/corpus suite).
test: build
	$(GO) test -timeout $(TIMEOUT) ./...

# Race-enabled run of the packages with real concurrency: the parallel
# campaign engine (internal/harness), the per-VM DisablePasses plumbing
# that concurrent bisection probes rely on (internal/jit, internal/vm),
# and the root package that drives them from benchmarks.
race:
	$(GO) test -race -timeout $(TIMEOUT) ./internal/harness/ ./internal/jit/ ./internal/vm/ .

# Blame smoke gate: bisect the flagship GCM store-sink reproducer and
# assert the behavior-derived localization names gcm (plus the rest of
# the fast blame-engine suite — verdicts, budget, determinism).
blame-smoke:
	$(GO) test -timeout $(TIMEOUT) ./internal/blame/

# Resume-determinism gate: interrupt+resume must be byte-identical to
# an uninterrupted campaign at workers 1/2/4, including after a torn
# final journal record. Part of `race` coverage too; this target runs
# just the gate for quick iteration on persistence code.
resume:
	$(GO) test -timeout $(TIMEOUT) \
		-run 'TestResumeDeterminism|TestResumeAfterTornRecord|TestCorpus' \
		./internal/journal/ ./internal/harness/

# One-shot pass over every benchmark to prove they still run, then
# the structured throughput report: cmd/bench measures campaign
# runs/sec, mutate+compile ns/op and allocs/op, and interpreter and
# compiled-executor ns/op, writing BENCH_campaign.json for
# cross-commit diffing.
bench:
	$(GO) test -bench . -benchtime 1x -timeout $(TIMEOUT) .
	$(GO) run ./cmd/bench -seeds 30 -out BENCH_campaign.json

# Cheap smoke variant for CI: proves the report pipeline works
# without paying for a statistically meaningful measurement.
bench-smoke:
	$(GO) run ./cmd/bench -seeds 3 -benchtime 0.05 -out BENCH_campaign.json

# Campaign golden gate: one short untraced run of every campaignbench
# workload. Each run checks every round's finding signatures against the
# goldens in campaignbench/suite.json and re-verifies every finding
# against the interpreter, so it catches step-count drift on real
# campaigns, which the unit tests cannot see.
bench-golden:
	for w in hunt-hotspot hunt-short triage-openj9 hunt-art; do \
		bash campaignbench/run.sh --workload $$w --seed 0 --seconds 1 --trace 0 || exit 1; \
	done

ci: fmt vet test race resume blame-smoke bench-smoke bench-golden
