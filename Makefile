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

.PHONY: build test test-race bench bench-smoke bench-json bench-perf bench-compare cover examples fmt fmt-check vet scenario-lint scenarios telemetry-check fuzz-smoke perfbench-check portable ci

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

# The telemetry plane's nil-perturbation and composition guarantee, end to
# end on a committed scenario that pages KV (pressure.vrex; flash-crowd has
# no KV pool, so no stalls): the bare run and the run with -trace-out,
# -metrics-out and -record-trace attached together must print byte-identical
# stdout, the trace must be valid JSON, and the recorded replay must lint. A
# Runs under -cpuprofile and under -memprofile must print the same stdout too
# and each write a non-empty profile.
# Outputs stay in telemetry-check/; the scenarios CI job uploads the trace and
# metrics.
telemetry-check:
	@mkdir -p telemetry-check
	$(GO) build -o telemetry-check/vrex-sim ./cmd/vrex-sim
	telemetry-check/vrex-sim -scenario scenarios/pressure.vrex > telemetry-check/bare.txt
	telemetry-check/vrex-sim -scenario scenarios/pressure.vrex \
		-trace-out telemetry-check/trace.json -metrics-out telemetry-check/metrics.prom \
		-record-trace telemetry-check/replay.vrex > telemetry-check/wired.txt
	cmp telemetry-check/bare.txt telemetry-check/wired.txt
	telemetry-check/vrex-sim -scenario scenarios/pressure.vrex \
		-cpuprofile telemetry-check/cpu.pprof > telemetry-check/profiled.txt
	cmp telemetry-check/bare.txt telemetry-check/profiled.txt
	test -s telemetry-check/cpu.pprof
	telemetry-check/vrex-sim -scenario scenarios/pressure.vrex \
		-memprofile telemetry-check/mem.pprof > telemetry-check/memprofiled.txt
	cmp telemetry-check/bare.txt telemetry-check/memprofiled.txt
	test -s telemetry-check/mem.pprof
	python3 -m json.tool telemetry-check/trace.json > /dev/null
	telemetry-check/vrex-sim -scenario-lint telemetry-check/replay.vrex

# Native-fuzz smoke over the scenario, scheduler, fault, node-list,
# policy-model, spill, degradation and retrieval-policy parsers: each replays
# its seed corpus, then fuzzes for FUZZTIME looking for panics, crashes,
# parse/format fixed-point violations, names that do not parse back, and
# accepted values outside their documented ranges.
fuzz-smoke:
	$(GO) test -run xxx -fuzz=FuzzParseScenario -fuzztime=$(FUZZTIME) ./internal/scenario/
	$(GO) test -run xxx -fuzz=FuzzParseScheduler -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -run xxx -fuzz=FuzzParseFaults -fuzztime=$(FUZZTIME) ./internal/cluster/
	$(GO) test -run xxx -fuzz=FuzzParseNodes -fuzztime=$(FUZZTIME) ./internal/cluster/
	$(GO) test -run xxx -fuzz=FuzzParsePolicy -fuzztime=$(FUZZTIME) ./internal/hwsim/
	$(GO) test -run xxx -fuzz=FuzzParseSpill -fuzztime=$(FUZZTIME) ./internal/kvpool/
	$(GO) test -run xxx -fuzz=FuzzParseDegrade -fuzztime=$(FUZZTIME) ./internal/degrade/
	$(GO) test -run xxx -fuzz=FuzzFromSpec -fuzztime=$(FUZZTIME) ./internal/retrieval/

# The repository benchmark's correctness checks: each workload runs for one
# second with tracing off. perfbench checks every operation's output and the
# fixed-input counters committed in perfbench/, and exits 1 unless it
# reports "correct":true. The list mirrors BENCHMARK.json's workloads.
perfbench-check:
	@for w in resv-stream serve-suite cluster-fault; do \
		echo "== perfbench $$w"; \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 || exit 1; \
	done

# The portable kernels: on amd64 the ReSV kernels are SSE2 assembly, and
# every other architecture runs their Go loops instead. GOARCH=386 test
# binaries run natively on an amd64 host and take the Go loops, so the
# kernel identity tests pin the portable path too. math.Exp has two amd64
# paths: on a CPU with AVX and FMA it fuses (VFMADD), which gives other
# float64 bits than the path without. The ReSV outputs depend on math.Exp
# only through float32 roundings, so the packages whose identity tests
# compare with it run again with GODEBUG=cpu.fma=off, which pins the other
# path on any host. arm64 is vetted (build constraints and the Go loops),
# not run. Last, the arm64 builds of the packages resv-stream runs (mathx,
# whose RNG draws every model weight; tensor, model, hashbit and core; and
# wicsum, whose weighted masses decide which clusters ReSV selects) must
# hold no FMADD-family instruction: arm64 fuses x*y + z unless the product
# is converted explicitly, and a fused result has other bits than amd64's.
# This covers the module's code only: math.Pow, math.Sincos and math.Exp
# still fuse inside the standard library on arm64. The build cache replays
# -S output, so a warm cache checks too.
portable:
	GOARCH=386 $(GO) test -count=1 ./internal/mathx ./internal/tensor ./internal/model ./internal/hashbit ./internal/core ./internal/wicsum
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./internal/mathx ./internal/model ./internal/core
	GOARCH=arm64 $(GO) vet ./...
	@for pkg in ./internal/mathx ./internal/tensor ./internal/model ./internal/hashbit ./internal/core ./internal/wicsum; do \
		asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S $$pkg 2>&1) || { echo "$$asm" >&2; exit 1; }; \
		echo "$$asm" | grep -q STEXT || { echo "portable: no assembly listing for $$pkg" >&2; exit 1; }; \
		if echo "$$asm" | grep -E '\sFN?M(ADD|SUB)[DS]\s'; then \
			echo "portable: FMA instructions in the arm64 build of $$pkg (above)" >&2; exit 1; \
		fi; \
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
# noalloc, policyreg, exhaustive, floatdet; then the module-wide dead-export
# check, which is a test. See README "Invariants".
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/vrex-vet ./...
	$(GO) test -count=1 -run TestNoDeadExports ./internal/analysis

# Same steps as the workflow: build, vet, gofmt, race tests, portable
# kernels, examples, scenario lint + suite golden, telemetry nil-perturbation
# check, benchmark correctness checks, bench smoke + JSON artifact.
ci: build vet fmt-check test-race portable examples scenario-lint scenarios telemetry-check perfbench-check bench-smoke bench-json
