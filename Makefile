# Mirrors .github/workflows/ci.yml so local runs and CI are the same
# commands: `make ci` is exactly what a PR must pass.

GO ?= go

# Perf-capture knobs: `make bench-perf` writes $(BENCH_OUT); `make
# bench-compare OLD=a.json NEW=b.json` prints the before/after table, and
# with TOL=<percent> exits nonzero on any ns/op or allocs/op regression
# beyond the tolerance (the CI gate). (BENCH_PR*.json files are committed
# frozen baselines — capture to a scratch name and compare against them,
# don't overwrite them.)
BENCH_OUT ?= bench-perf.json
OLD ?= BENCH_PR9.json
NEW ?= bench-perf.json
TOL ?=

# Coverage gate: `make cover` fails when total statement coverage drops
# below COVER_FLOOR percent. The repo sits well above 80%; the floor is
# deliberately conservative so it trips on wholesale untested subsystems,
# not on a single sparse PR.
COVER_FLOOR ?= 60

# Fuzz smoke budget for `make fuzz-smoke` (native Go fuzzing).
FUZZTIME ?= 20s

.PHONY: build test test-race bench bench-smoke bench-json bench-perf bench-compare cover examples fmt fmt-check vet scenario-lint scenarios fuzz-smoke perfbench-check ci

build:
	$(GO) build ./...

test:
	$(GO) test -count=1 ./...

test-race:
	$(GO) test -race ./...

# Full benchmark sweep (slow; regenerates every paper artifact repeatedly).
bench:
	$(GO) test -run xxx -bench=. ./...

# CI's perf smoke: one iteration per benchmark, Quick workloads only,
# with allocation counters so per-frame allocation regressions are visible.
bench-smoke:
	$(GO) test -run xxx -bench=. -benchtime=1x -benchmem -short ./...

# Machine-readable bench artifact (Quick workloads): one JSON object per
# table, uploaded by the bench-smoke CI job.
bench-json:
	$(GO) run ./cmd/vrex-bench -exp all -quick -format json > bench-smoke.json

# Machine-readable perf capture: kernel + experiment benchmark timings and
# allocation counts as JSON (the BENCH_*.json trajectory files; see
# EXPERIMENTS.md "Performance workflow"). Uploaded as a CI artifact.
bench-perf:
	$(GO) test -run xxx -bench=. -benchtime=1x -benchmem -short ./... \
		| $(GO) run ./cmd/vrex-benchstat -parse > $(BENCH_OUT)

# Diff two bench-perf captures: markdown table of ns/op and allocs/op
# deltas; TOL=<percent> additionally gates on regressions beyond it.
bench-compare:
	$(GO) run ./cmd/vrex-benchstat -compare $(if $(TOL),-tolerance $(TOL)) $(OLD) $(NEW)

# Parse, compile and canonical-round-trip every committed scenario file.
scenario-lint:
	$(GO) run ./cmd/vrex-sim -scenario-lint scenarios

# Run the committed .vrex suite (plus the adversarial search) in Quick
# mode and diff against its pinned golden — the CI gate for scenarios/.
# (.PHONY keeps the scenarios/ directory from satisfying this target.)
scenarios:
	$(GO) run ./cmd/vrex-bench -exp scenarios -quick -parallel 1 | \
		diff -u internal/experiments/testdata/golden/quick/scenarios.txt -

# Native-fuzz smoke over the scenario parser: replays the committed seed
# corpus, then fuzzes for FUZZTIME looking for parse/marshal fixed-point
# violations.
fuzz-smoke:
	$(GO) test -run xxx -fuzz=FuzzParseScenario -fuzztime=$(FUZZTIME) ./internal/scenario/

# The repository benchmark's correctness checks: each workload runs for one
# second with tracing off. perfbench checks every operation's output and the
# fixed-input counters committed in perfbench/, and exits 1 unless it
# reports "correct":true. The list mirrors BENCHMARK.json's workloads.
perfbench-check:
	@for w in resv-stream serve-suite cluster-fault; do \
		echo "== perfbench $$w"; \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 || exit 1; \
	done

# Coverage profile across all packages (per-package lines from go test,
# totals from cover -func); CI uploads cover.out as an artifact and the
# COVER_FLOOR gate fails the job if total coverage regresses below it.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -n 1
	@$(GO) tool cover -func=cover.out | tail -n 1 | \
		awk -v floor=$(COVER_FLOOR) '{ sub(/%/, "", $$3); \
			if ($$3 + 0 < floor + 0) { \
				printf "FAIL: total coverage %s%% below floor %s%%\n", $$3, floor; exit 1 } \
			printf "coverage gate ok: %s%% >= %s%%\n", $$3, floor }'

# Build and run every example binary as a smoke test.
examples:
	$(GO) build ./examples/...
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

fmt:
	gofmt -w .

fmt-check:
	@diff=$$(gofmt -l .); \
	if [ -n "$$diff" ]; then \
		echo "gofmt needed on:" >&2; echo "$$diff" >&2; exit 1; \
	fi

# go vet plus the repo's own invariant analyzers (cmd/vrex-vet): determinism,
# noalloc, policyreg, exhaustive, floatdet. See README "Invariants".
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/vrex-vet ./...

# Same steps as the workflow: build, vet, gofmt, race tests, examples,
# scenario lint + suite golden, benchmark correctness checks, bench smoke +
# JSON artifact.
ci: build vet fmt-check test-race examples scenario-lint scenarios perfbench-check bench-smoke bench-json
