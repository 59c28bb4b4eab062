# Tier-1 verification and development targets. `make verify` is the
# full pre-merge gate: build, vet, tests, and the race detector over
# the whole module (the differential and concurrency-audit tests in
# internal/sweep only prove anything when the race target runs).

GO ?= go

.PHONY: all build test race bench bench-engine bench-scale bench-json bench-regress benchstat vet verify session-guard fuzz-smoke golden cover jobs-e2e layout

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race target is part of tier-1 verification: it runs the
# differential sweep tests and the concurrency-safety audit under the
# race detector.
race:
	$(GO) test -race ./...

# Sweep-engine scaling benchmarks (plus the per-table harness
# benchmarks at the repo root), the HTTP serving hot path (cold vs
# cached on the 512-node canonical mesh), and a synchronous Monte Carlo
# reliability document run as its plan (one mc.RunPoint per grid point).
bench:
	$(GO) test ./internal/sweep -bench=Sweep -benchtime=3x -run=^$$
	$(GO) test ./internal/service -bench=Served -benchtime=100x -run=^$$
	$(GO) test ./internal/mc -bench='^BenchmarkMCReliability(Point)?$$' -benchmem -benchtime=3x -run=^$$
	$(GO) test ./internal/scenario -bench='^BenchmarkPlanReliability$$' -benchmem -benchtime=3x -run=^$$
	$(GO) test ./internal/life -bench=Lifetime -benchtime=3x -run=^$$

# Engine-overhaul measurement pipeline. bench/baseline.txt pins the
# pre-optimization numbers (same commands, run at the commit before the
# scheduler/arena/relay-plan rewrite); bench-engine reproduces the
# suite in the identical shape so benchstat and benchjson can pair the
# rows up.
bench-engine:
	$(GO) test ./internal/sim -run='^$$' -bench='^BenchmarkEngine' -benchmem | tee bench/current.txt
	$(GO) test ./internal/mc -run='^$$' -bench=. -benchmem | tee -a bench/current.txt
	$(GO) test ./internal/sweep -run='^$$' -bench=. -benchmem -benchtime=2x | tee -a bench/current.txt
	$(GO) test ./internal/life -run='^$$' -bench=. -benchmem | tee -a bench/current.txt

# Large-grid scaling suite (64^2 to 1024^2 plus 128^3): the implicit
# fast path, the forced materialized path, the preserved reference
# engine, and the engine-loop-only measurement that isolates
# steady-state arena allocation from the Result arrays. Low
# fixed iteration count — single iterations of the biggest meshes are
# already statistically quiet, and the materialized 128^3 run costs
# seconds per op.
bench-scale:
	$(GO) test ./internal/sim -run='^$$' -bench='^BenchmarkScale' -benchmem -benchtime=3x | tee bench/scale.txt

# Machine-readable before/after record. CI regenerates BENCH_sim.json
# on every run and uploads it as an artifact.
bench-json:
	@test -f bench/current.txt || $(MAKE) bench-engine
	$(GO) run ./cmd/benchjson -before bench/baseline.txt -after bench/current.txt -o BENCH_sim.json
	@echo wrote BENCH_sim.json

# Human-readable comparison against the pinned baseline. benchstat is
# not vendored; install it once with:
#   go install golang.org/x/perf/cmd/benchstat@latest
benchstat:
	@command -v benchstat >/dev/null 2>&1 || { \
		echo "benchstat not found on PATH; install it with:"; \
		echo "  go install golang.org/x/perf/cmd/benchstat@latest"; exit 1; }
	@test -f bench/current.txt || $(MAKE) bench-engine
	benchstat bench/baseline.txt bench/current.txt

# CI regression smoke: one iteration of the lifetime headline
# benchmark, compared against the pinned baseline when benchstat is on
# PATH. A single iteration carries no statistical weight, so the
# benchstat diff is informational (|| true); the target fails only when
# the benchmark itself fails to build or run — the regression this
# smoke actually guards against.
bench-regress:
	$(GO) test ./internal/life -run='^$$' -bench='^BenchmarkLifetime$$' -benchmem -benchtime=1x | tee bench/regress.txt
	@command -v benchstat >/dev/null 2>&1 && benchstat bench/baseline.txt bench/regress.txt || true

# vet also fails on any file gofmt would rewrite, so CI (make verify)
# catches formatting drift.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "vet: gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

# Guard: the session-vs-sim.Run differential suites are the
# round-persistent session's correctness contract (byte-identical
# lifetime reports across topologies, strategies, churn and worker
# counts, round-memo hits included, and across checkpoint resumes).
# If a build tag (or a rename) ever drops them from the test binaries,
# verify fails before running anything rather than passing vacuously,
# because the race target below is what runs them under the race
# detector. TestLargeGridDifferential is the only at-scale check of
# sim.Run against the test-only reference engine; the race target
# skips it, so the plain test target is its only run. TestPlanGolden
# pins the bytes of every request shape now that the synchronous and
# job paths run one plan and can no longer check each other, and
# TestDifferentialWorkerCounts checks the job path's store round trip
# and merge against the in-process run. TestPooledSessionDifferential
# checks that a released session bound again to another protocol and
# config carries nothing over, now that Monte Carlo points reuse
# sessions across grid points and jobs. The engine draws loss through
# a hoisted key chain, not BernoulliLoss.Deliver: FuzzLossKeyEquivalence
# holds the two forms to the same verdicts, and
# TestDifferentialEngineCanonical's lossy and lossy+down cases hold
# whole lossy runs to the reference engine, which calls Deliver. A
# static, churn-free lifetime cell runs its quiet rounds in bulk, and
# the round-budget matrices above never reach that path:
# TestQuietStretchDifferential holds batched cells to the per-round
# reference, checkpoint resumes included. Only traced runs sort a slot's
# transmitters, and only the first repair planning round scans every
# uncovered node: the differential helpers (diffOne, largeDiffOne) also
# hold an untraced Run to the reference, and TestFrontierMatchesFullScan
# reruns the full scan beside every frontier planning round.
# FuzzChurnKeyEquivalence holds the lifetime engine's hoisted churn draw
# to ChurnUnit.
session-guard:
	@$(GO) test ./internal/sim -run='^$$' -list='^TestSessionDifferentialAllKinds$$' | grep -q '^TestSessionDifferentialAllKinds$$' || \
		{ echo "verify: TestSessionDifferentialAllKinds missing from internal/sim"; exit 1; }
	@$(GO) test ./internal/life -run='^$$' -list='^TestSessionDifferentialMatrix$$' | grep -q '^TestSessionDifferentialMatrix$$' || \
		{ echo "verify: TestSessionDifferentialMatrix missing from internal/life"; exit 1; }
	@$(GO) test ./internal/life -run='^$$' -list='^TestSessionCheckpointResumeMatchesReference$$' | grep -q '^TestSessionCheckpointResumeMatchesReference$$' || \
		{ echo "verify: TestSessionCheckpointResumeMatchesReference missing from internal/life"; exit 1; }
	@$(GO) test ./internal/sim -run='^$$' -list='^TestLargeGridDifferential$$' | grep -q '^TestLargeGridDifferential$$' || \
		{ echo "verify: TestLargeGridDifferential missing from internal/sim"; exit 1; }
	@$(GO) test ./internal/sim -run='^$$' -list='^TestPooledSessionDifferential$$' | grep -q '^TestPooledSessionDifferential$$' || \
		{ echo "verify: TestPooledSessionDifferential missing from internal/sim"; exit 1; }
	@$(GO) test ./internal/scenario -run='^$$' -list='^TestPlanGolden$$' | grep -q '^TestPlanGolden$$' || \
		{ echo "verify: TestPlanGolden missing from internal/scenario"; exit 1; }
	@$(GO) test ./internal/jobs -run='^$$' -list='^TestDifferentialWorkerCounts$$' | grep -q '^TestDifferentialWorkerCounts$$' || \
		{ echo "verify: TestDifferentialWorkerCounts missing from internal/jobs"; exit 1; }
	@$(GO) test ./internal/sim -run='^$$' -list='^TestDifferentialEngineCanonical$$' | grep -q '^TestDifferentialEngineCanonical$$' || \
		{ echo "verify: TestDifferentialEngineCanonical missing from internal/sim"; exit 1; }
	@$(GO) test ./internal/sim -run='^$$' -list='^FuzzLossKeyEquivalence$$' | grep -q '^FuzzLossKeyEquivalence$$' || \
		{ echo "verify: FuzzLossKeyEquivalence missing from internal/sim"; exit 1; }
	@$(GO) test ./internal/life -run='^$$' -list='^TestQuietStretchDifferential$$' | grep -q '^TestQuietStretchDifferential$$' || \
		{ echo "verify: TestQuietStretchDifferential missing from internal/life"; exit 1; }
	@$(GO) test ./internal/sim -run='^$$' -list='^TestFrontierMatchesFullScan$$' | grep -q '^TestFrontierMatchesFullScan$$' || \
		{ echo "verify: TestFrontierMatchesFullScan missing from internal/sim"; exit 1; }
	@$(GO) test ./internal/sim -run='^$$' -list='^FuzzChurnKeyEquivalence$$' | grep -q '^FuzzChurnKeyEquivalence$$' || \
		{ echo "verify: FuzzChurnKeyEquivalence missing from internal/sim"; exit 1; }
	@for f in differential_test.go largegrid_test.go; do \
		grep -q 'untracedMatches(t, want' internal/sim/$$f || \
		{ echo "verify: internal/sim/$$f no longer checks an untraced Run against the reference"; exit 1; }; \
	done

# Short fuzz smoke — the corpus seeds plus a few seconds of mutation
# per target; CI runs this on every push. go test -fuzz takes one
# target per invocation. The churn target proves the lifetime engine's
# churn draws never collide with the loss/failure/replication key
# domains; the loss-key target checks the engine's hoisted loss and
# failure draws against the plain keyed chain, and the churn-key target
# the lifetime engine's hoisted churn draws against ChurnUnit; the quiet-debit target
# checks the lifetime engine's bulk battery debit against repeated
# subtraction, bit for bit; the core targets check every paper protocol reaches every
# node of fuzzed mesh sizes and sources, and that the protocols are
# pure functions of their inputs; the scenario target checks the
# document decoder never panics, canonical identities are stable, and
# Compile stays prompt inside the service's node cap.
FUZZ_CORE = FuzzMesh4Reachability FuzzMesh8Reachability FuzzMesh3Reachability FuzzMesh3D6Reachability FuzzProtocolPurity
fuzz-smoke:
	$(GO) test ./internal/sim -run='^$$' -fuzz='^FuzzChurnDomainDisjoint$$' -fuzztime=5s
	$(GO) test ./internal/sim -run='^$$' -fuzz='^FuzzLossKeyEquivalence$$' -fuzztime=5s
	$(GO) test ./internal/sim -run='^$$' -fuzz='^FuzzChurnKeyEquivalence$$' -fuzztime=5s
	$(GO) test ./internal/life -run='^$$' -fuzz='^FuzzQuietDebit$$' -fuzztime=5s
	for t in $(FUZZ_CORE); do \
		$(GO) test ./internal/core -run='^$$' -fuzz="^$$t\$$" -fuzztime=3s || exit 1; \
	done
	$(GO) test ./internal/scenario -run='^$$' -fuzz='^FuzzScenarioDecode$$' -fuzztime=5s

verify: session-guard build vet test race

# Coverage profile over the whole module; CI uploads coverage.out as
# an artifact. Atomic mode so the profile is also valid under -race.
cover:
	$(GO) test ./... -covermode=atomic -coverprofile=coverage.out
	$(GO) tool cover -func=coverage.out | tail -1

# Crash/restart smoke over the async job subsystem: submits a Monte
# Carlo job against a -store directory, SIGKILLs the server mid-job,
# restarts it, and diffs the resumed job's result against a fresh
# synchronous answer. Needs curl and jq on PATH.
jobs-e2e:
	./scripts/jobs_e2e.sh

# Code layout of the perfbench binary: the address mod 64 of the
# lifetime, engine and Monte Carlo hot functions. Perf readings on
# lifetime-static move with these alignments, so record this output for
# both trees of a before/after comparison.
layout:
	./scripts/layout.sh

# Regenerate the golden files after an intended output change.
golden:
	$(GO) test ./internal/experiments -run Golden -update
	$(GO) test ./internal/mc -run Golden -update
	$(GO) test ./internal/scenario -run PlanGolden -update
	$(GO) test ./cmd/wsnsweep -run SweepGolden -update
