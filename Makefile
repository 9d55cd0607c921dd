GO ?= go

BENCHES = treeadd power tsp mst bisort voronoi em3d barneshut perimeter health

.PHONY: check build vet fmt static test race fuzz oldenvet lint analyze phases bench report perfgate wallclock profile benchstat serve load servesmoke cluster clustersmoke update-goldens

# Each fuzz target gets a short smoke run in check; raise FUZZTIME for a
# real fuzzing session.
FUZZTIME ?= 10s

# The full gate CI runs: build, vet, formatting, third-party static
# analysis, tests, contract checks, the mini-C lints over every kernel
# and example source, and a fuzz smoke.
check: build vet fmt static test oldenvet lint fuzz

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Third-party static analysis at a zero-finding gate. The tools are not
# vendored; when a box doesn't have them the target says so and passes
# (CI installs the pinned versions below and so always runs both).
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

static:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "static: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "static: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# go test runs one -fuzz target per invocation; -run '^$$' skips the
# ordinary tests so only the fuzzing engine runs.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzPackUnpack$$' -fuzztime $(FUZZTIME) ./internal/gaddr
	$(GO) test -run '^$$' -fuzz '^FuzzLexAll$$' -fuzztime $(FUZZTIME) ./internal/lang
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/lang
	$(GO) test -run '^$$' -fuzz '^FuzzEffects$$' -fuzztime $(FUZZTIME) ./internal/analysis/effects
	$(GO) test -run '^$$' -fuzz '^FuzzRecorderRing$$' -fuzztime $(FUZZTIME) ./internal/trace

oldenvet:
	$(GO) run ./cmd/oldenvet ./...

# Persistent baselines and the deterministic perf gate. `make bench`
# re-pins the committed BENCH_<name>.json files (do this when a change
# intentionally moves cycle counts, and commit the diff); `make perfgate`
# reproduces the CI gate locally: record a candidate suite, compare it to
# the pinned files at zero tolerance, and render the markdown report.
BASELINE_PROCS ?= 4
PERFGATE_DIR ?= /tmp/olden-perfgate

bench:
	$(GO) run ./cmd/oldenbench -update -maxprocs $(BASELINE_PROCS)

report:
	$(GO) run ./cmd/oldenreport

perfgate:
	$(GO) run ./cmd/oldenbench -record $(PERFGATE_DIR) -maxprocs $(BASELINE_PROCS)
	$(GO) run ./cmd/oldenreport -candidate $(PERFGATE_DIR)

# Simulator wall-clock throughput. Everything above gates on simulated
# cycles (deterministic, zero tolerance); these targets measure how fast
# the simulator executes them — ns per simulated cycle, the host-dependent
# number that bounds served throughput per oldend core. Nothing here is
# pinned or gated.
#
#   make wallclock   measure every benchmark × scheme and render the
#                    report with its ns/sim-cycle section
#   make profile     pprof CPU + allocation profiles over the wall-clock
#                    benchmark suite (go test -bench WallClock)
#   make benchstat   run the suite -benchtime=1x -count=5 and compare
#                    against the committed testdata/wallclock_baseline.txt
WALL_DIR ?= /tmp/olden-wallclock
WALL_SCALE ?= 16
PROFILE_BENCHTIME ?= 3x
BENCHSTAT_VERSION ?= latest

wallclock:
	@mkdir -p $(WALL_DIR)
	$(GO) run ./cmd/oldenbench -wallclock $(WALL_DIR)/WALLCLOCK.json -maxprocs $(BASELINE_PROCS) -scale $(WALL_SCALE)
	$(GO) run ./cmd/oldenreport -wallclock $(WALL_DIR)/WALLCLOCK.json

profile:
	@mkdir -p $(WALL_DIR)
	BENCH_SCALE=$(WALL_SCALE) $(GO) test -run '^$$' -bench 'WallClock' -benchmem \
		-benchtime $(PROFILE_BENCHTIME) \
		-cpuprofile $(WALL_DIR)/cpu.out -memprofile $(WALL_DIR)/mem.out \
		-o $(WALL_DIR)/repro.test .
	@echo "inspect: $(GO) tool pprof $(WALL_DIR)/repro.test $(WALL_DIR)/cpu.out"
	@echo "inspect: $(GO) tool pprof $(WALL_DIR)/repro.test $(WALL_DIR)/mem.out"

benchstat:
	@mkdir -p $(WALL_DIR)
	BENCH_SCALE=64 $(GO) test -run '^$$' -bench 'WallClock' -benchmem \
		-benchtime 1x -count 5 . | tee $(WALL_DIR)/new.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat testdata/wallclock_baseline.txt $(WALL_DIR)/new.txt; \
	else \
		echo "benchstat not installed; skipping comparison (go install golang.org/x/perf/cmd/benchstat@$(BENCHSTAT_VERSION))"; \
	fi

# The serving layer. `make serve` runs oldend in the foreground (ctrl-C
# or SIGTERM drains gracefully); `make load` fires a short closed-loop
# burst at it from another terminal; `make servesmoke` reproduces the CI
# smoke end to end: boot, memoization check, over-admission burst with
# zero-5xx gate, cached-latency SLO, SIGTERM drain under load.
SERVE_ADDR ?= 127.0.0.1:8080
LOAD_DURATION ?= 5s

serve:
	$(GO) run ./cmd/oldend -addr $(SERVE_ADDR)

load:
	$(GO) run ./cmd/oldenload -url http://$(SERVE_ADDR) -c 4 -duration $(LOAD_DURATION) -slo-error-rate 0

servesmoke:
	bash scripts/serve_smoke.sh

# The sharded cluster. `make cluster` boots three oldend replicas behind
# oldenrouter on one box (ctrl-C tears everything down); point clients
# or `oldenload -via-router` at the router — the surface is identical to
# one oldend. `make clustersmoke` reproduces the CI cluster smoke:
# routed cache-hit byte-identity, the cross-replica verify sweep at zero
# mismatches, the three-shard balance gate, shard loss with zero 5xx,
# and tracing through the router.
cluster:
	bash scripts/cluster.sh

clustersmoke:
	bash scripts/cluster_smoke.sh

# One flag, one verb: every golden-pinning test in the tree takes
# `-update` to rewrite its files from the current build (lint goldens,
# trace-digest goldens, the oldenc -analyze/-phases goldens), and the
# committed BENCH_<name>.json baselines are re-pinned by `oldenbench
# -update` (= `make bench`, kept separate because moving cycle counts is
# a reviewed perf decision, not a golden refresh). Run this after an
# intentional output change, then review and commit the diff.
update-goldens:
	$(GO) test ./internal/core -run 'TestLintGolden' -update
	$(GO) test ./internal/bench -run 'TestTraceDigestGoldens' -update
	$(GO) test ./cmd/oldenc -run 'TestAnalyzeGoldens|TestPhasesGoldens' -update

# oldenc -lint exits 1 only on error-severity diagnostics; the known
# warnings (figure3's dead store, the figure5/barneshut demotions) pass.
lint:
	@for b in $(BENCHES); do \
		$(GO) run ./cmd/oldenc -lint -bench $$b || exit 1; \
	done
	@for f in examples/minic/*.c; do \
		$(GO) run ./cmd/oldenc -lint $$f || exit 1; \
	done

# Interprocedural effect/cost analysis over every kernel and example
# source: per-function summaries, static step/alloc bounds, heuristic
# diffs and the cacheability certificate. `-json` output of the same run
# is what CI uploads as the analyze-findings artifact.
analyze:
	@for b in $(BENCHES); do \
		echo "== $$b"; \
		$(GO) run ./cmd/oldenc -analyze -bench $$b || exit 1; \
	done
	@for f in examples/minic/*.c; do \
		echo "== $$f"; \
		$(GO) run ./cmd/oldenc -analyze $$f || exit 1; \
	done

# Phase plans over the same sources: ordered phase chains, per-phase
# footprints, the scheme-invariant prefix and the digest chain the
# server's phase cache keys on. `-json` of the same run is what CI
# uploads as the phase-plans artifact.
phases:
	@for b in $(BENCHES); do \
		echo "== $$b"; \
		$(GO) run ./cmd/oldenc -phases -bench $$b || exit 1; \
	done
	@for f in examples/minic/*.c; do \
		echo "== $$f"; \
		$(GO) run ./cmd/oldenc -phases $$f || exit 1; \
	done
