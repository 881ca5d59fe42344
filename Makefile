# Tier-1 gate plus the extended checks CI runs. The reference host has
# two vCPUs, on which race-enabled campaign tests are slow: every target
# carries an explicit -timeout generous enough for that hardware.

GO      ?= go
TIMEOUT ?= 9000s

.PHONY: all build fmt vet test race resume blame-smoke fuzz-smoke bench bench-smoke bench-test bench-golden ci

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
# campaign engine (internal/harness), the reducer that tests candidates
# on concurrent goroutines (internal/reduce), the per-compiler pass
# switches that concurrent bisection probes rely on and the stop flag
# set from other goroutines (internal/jit, internal/vm), and the root
# package that drives them from benchmarks.
race:
	$(GO) test -race -timeout $(TIMEOUT) ./internal/harness/ ./internal/reduce/ ./internal/jit/ ./internal/vm/ .

# Blame smoke gate: bisect the flagship GCM store-sink reproducer and
# assert the behavior-derived localization names gcm and the
# hs-gcm-store-sink defect (plus the rest of the fast blame-engine
# suite — verdicts, budget, determinism).
blame-smoke:
	$(GO) test -timeout $(TIMEOUT) ./internal/blame/

# Fuzz smoke: 20 s of native fuzzing of the bytecode verifier
# (internal/bytecode FuzzVerify), 10 s of the front end (internal/bytecode
# FuzzFrontEnd), 10 s of the JIT on generated programs and their JoNM
# mutants (internal/jit FuzzJIT) and 10 s of journal recovery
# (internal/journal FuzzRecover). Verification must
# never panic, and every program it accepts must run on the interpreter
# without a Go runtime fault; the parser must never panic, printing what
# it parses must reparse to the same text, and every analyzed program
# must compile, verify and delta-compile to the same code; every regular
# and OSR compile at tiers 1 and 2 must pass the IR validator without a
# panic or error (an OSR entry at an unreachable loop fails benignly),
# and forced tier-1 and tier-2 runs must print what the interpreter
# prints; recovery must never panic, and re-framing what it recovers
# must reproduce the intact prefix byte for byte. FuzzFrontEnd and
# FuzzJIT skip minimizing new inputs, which can stall a short run for
# most of its time. `go test ./...` replays only the checked-in corpora.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzVerify$$' -fuzztime 20s ./internal/bytecode/
	$(GO) test -run '^$$' -fuzz '^FuzzFrontEnd$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/bytecode/
	$(GO) test -run '^$$' -fuzz '^FuzzJIT$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/jit/
	$(GO) test -run '^$$' -fuzz '^FuzzRecover$$' -fuzztime 10s ./internal/journal/

# Resume-determinism gate: interrupt+resume must be byte-identical to
# an uninterrupted campaign at workers 1/2/4, including after a torn
# final journal record. Part of `race` coverage too; this target runs
# just the gate for quick iteration on persistence code.
resume:
	$(GO) test -timeout $(TIMEOUT) \
		-run 'TestResumeDeterminism|TestResumeAfterTornRecord|TestCorpus' \
		./internal/journal/ ./internal/harness/

# One-shot pass over every benchmark to prove they still run: the
# paper's tables and ablations, the substrate micro-benchmarks and one
# full blame localization. End-to-end throughput and cost are measured
# by campaignbench (bench-golden below, BENCHMARK.json).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -timeout $(TIMEOUT) . ./internal/blame/

# Cheap smoke variant for CI: one iteration of each substrate
# micro-benchmark (front end, interpreter, JIT, compiled-code executor)
# and of the blame localization, which fails unless it localizes.
bench-smoke:
	$(GO) test -run '^$$' -benchtime 1x -timeout $(TIMEOUT) \
		-bench '^Benchmark(MutateCompile|Interpreter|TieredExecution|CompiledExecutor|CompiledExecutorTier1|JITCompileTier2|SeedGeneration|BlameGCMStoreSink)$$' \
		. ./internal/blame/

# Benchmark self-test: vet and test the campaignbench module (its own
# go.mod, so `./...` above never reaches it). Its tests check that the
# traced replica still mirrors the harness's signatures and run
# accounting, which otherwise only a traced benchmark run exercises.
bench-test:
	cd campaignbench && $(GO) vet . && $(GO) test -count=1 -timeout $(TIMEOUT) .

# Campaign golden gate: one short untraced run of every campaignbench
# workload. Each run checks every round's finding signatures against the
# goldens in campaignbench/suite.json and re-verifies every finding
# against the interpreter, so it catches step-count drift on real
# campaigns, which the unit tests cannot see.
bench-golden:
	for w in hunt-hotspot hunt-short triage-openj9 hunt-art; do \
		bash campaignbench/run.sh --workload $$w --seed 0 --seconds 1 --trace 0 || exit 1; \
	done

ci: fmt vet test race resume blame-smoke fuzz-smoke bench-smoke bench-test bench-golden
