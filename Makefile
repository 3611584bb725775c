GO ?= go

.PHONY: build test bench benchall bench-smoke bench-check vet race fuzz chaos crash check equiv lint degradation topo-equiv serve fleet golden

# The benchmark set committed to BENCH_mapper.json (and gated by bench-check).
BENCH_PATTERN = BenchmarkSearchLayer|BenchmarkEngineEvalModelResNet50|BenchmarkServeReferenceTrace|BenchmarkSweep|BenchmarkKernel

# Runs per benchmark in bench and bench-check; cmd/benchjson folds them into
# the per-metric median, so a single slow run moves neither side of the gate.
BENCH_COUNT = 3

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench runs the mapper-search, model-evaluation, sweep and cost-kernel
# benchmarks and commits the medians to BENCH_mapper.json (via
# cmd/benchjson), including the derived exhaustive-vs-pruned speedup and
# allocation ratios.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count=$(BENCH_COUNT) . \
		| $(GO) run ./cmd/benchjson -o BENCH_mapper.json
	@cat BENCH_mapper.json

# bench-check re-measures the committed benchmark set and fails when the
# median ns/op of any search/engine/sweep/kernel benchmark is more than 25%
# above the committed BENCH_mapper.json baseline.
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count=$(BENCH_COUNT) . \
		| $(GO) run ./cmd/benchjson -check BENCH_mapper.json

# benchall is the full suite across every package (the pre-perf-PR `bench`).
benchall:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke is the CI variant: one iteration per benchmark, just to prove
# the harness and the benchjson pipeline still run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSearchLayer' -benchtime 1x -benchmem -count=1 . \
		| $(GO) run ./cmd/benchjson

# equiv pins the branch-and-bound search to the exhaustive reference across
# the model zoo under the race detector (the perf-PR correctness gate).
equiv:
	$(GO) test -race -count=1 -run 'TestSearchAllMatchesExhaustive|TestSearchAllWorkersInvariant|TestBestPerSpatialCombo' ./internal/mapper

vet:
	$(GO) vet ./...

# lint fails on any file gofmt would rewrite, then runs staticcheck when it is
# installed (CI installs it; locally it is optional) on top of go vet.
# `go run`-ing the tool would add a dependency to go.mod, so the binary is
# looked up on PATH instead.
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# degradation runs the yield-aware robustness gate: ring rerouting identities,
# fault-mask canonicalization, degraded-search equivalence, scenario sweep
# determinism and kill/resume round trips, all under the race detector.
degradation:
	$(GO) test -race -count=1 -run 'TestNewRingUnder|TestRingDegenerate|TestFaultMask|TestParseFaultMask|TestDegrade|TestEnvelope|TestYield|TestSearchAllMatchesExhaustiveDegraded|TestSearchDegradedCostsMore|TestEvalScenario|TestDegradationSweep|TestCacheKeyFaultSeparation|TestCacheFaultErrorEviction|TestScenarioPointKey' \
		./internal/noc ./internal/hardware ./internal/mapper ./internal/faults ./internal/engine

# topo-equiv is the topology-refactor correctness gate: the generic graph
# engine must reproduce the ring's closed forms exactly (healthy, and under
# every fault mask over 2-8 positions), the simulator must be byte-identical
# on either ring implementation across searched zoo mappings, and the engine
# cache must key ring/mesh/torus separately — all under the race detector.
topo-equiv:
	$(GO) test -race -count=1 -run 'TestGenericRing|TestMeshTorus|TestGridDims|TestTopologyConstructorErrors|TestDegradedMeshReroutes|TestNewInterconnect|TestParseTopology|TestTopology|TestConfigTupleTopologySuffix|TestConfigValidateTopology|TestSimZooRingGenericEquivalence|TestCacheKeyTopologySeparation|TestEvalTopologyCostOrdering|TestGranularityTopologyAxis|TestGranularityMeshCostsAtLeastRing' \
		./internal/noc ./internal/hardware ./internal/sim ./internal/engine ./internal/dse

# serve is the serving-simulation determinism gate: trace parsing, DES
# batching/queueing semantics, the single-request EvalModel identity, and the
# byte-identical-report invariant across engine worker counts and repeated
# runs (healthy and degraded), all under the race detector.
serve:
	$(GO) test -race -count=1 -run 'TestParseTrace|TestWriteTrace|TestReferenceTrace|TestSimulate|TestConfigValidate|TestSingleRequestLatencyEqualsEvalModel|TestBuildOracle|TestServeReport' ./internal/serve

# golden diffs two printed reproductions byte for byte against committed
# files: the quick pass of every experiment, and the Fig 15 explore sweep of
# DarkNet-19. A change that means to move a printed number regenerates the
# file in the same commit.
golden:
	$(GO) run ./cmd/experiments -exp all -quick | diff -u testdata/golden/experiments_quick.txt -
	$(GO) run ./cmd/nnbaton-dse -mode explore -model darknet19 | diff -u testdata/golden/explore_darknet19.txt -

# -shuffle=on randomizes test and subtest order each run, so inter-test
# state dependencies surface in CI instead of in production.
race:
	$(GO) test -race -shuffle=on ./...

# fuzz is a short smoke run of the parser fuzzers — long enough to re-find
# the historical zero-stride crashers, short enough for CI. Covers the
# model-description parser and the serving arrival-trace parser.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/workload
	$(GO) test -fuzz=FuzzParseTrace -fuzztime=10s ./internal/serve
	$(GO) test -fuzz=FuzzCacheDecode -fuzztime=10s ./internal/store

# chaos runs the fault-injection suite under the race detector: injected
# panics, deadline overruns, transient errors, mid-sweep cancellations and
# checkpoint kill/resume round trips against the real evaluation paths
# (see DESIGN.md "Resilience model").
chaos:
	$(GO) test -race -count=1 -run '^TestChaos' ./internal/engine ./internal/dse

# crash is the worker-death recovery gate: a sharded-sweep subprocess is
# SIGKILLed mid-shard, a surviving worker reclaims its expired lease and the
# merged worker journals must be byte-identical to a single-process run —
# plus the torn-journal and persistent-cache corruption recovery suites.
crash:
	$(GO) test -race -count=1 -run 'TestChaosShardedWorkerKillReclaimMerge|TestShardedExplore|TestJournalCrashTruncationSweep|TestJournalBufferedCrashTruncationSweep|TestMergeFiles|TestDiskCache' \
		./internal/dse ./internal/ckpt ./internal/engine

# fleet is the coordinator crash-recovery gate: the fleet control-service
# suite plus the fleetd SIGKILL chaos test (kill the coordinator mid-study,
# restart it, the study completes with merged bytes identical to a
# single-process run, and SIGTERM drains to a clean exit), under the race
# detector.
fleet:
	$(GO) test -race -count=1 ./internal/fleet
	$(GO) test -race -count=1 -run 'TestChaosFleetd' ./cmd/nnbaton-fleetd

# check is the pre-merge gate: static analysis, the full suite under the
# race detector (the engine is concurrent; plain `go test` won't catch
# races), and the benchmark regression gate against BENCH_mapper.json.
check: vet race bench-check
