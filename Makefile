GO ?= go

.PHONY: all build vet lint test race race-hot bench examples fuzz perfbench-test perfbench paper soak soak-short check loc

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Run go vet plus the phaselint suite (internal/lint): single-owner leak,
# determinism, hot-path allocation, snapshot-completeness and
# bounded-state checks over the whole module.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/phaselint ./...

test:
	$(GO) test ./...

# Full suite under the race detector, including the concurrent-sweep
# tests that exercise >= 4 simultaneous (executor, monitor, pipeline)
# stacks.
race:
	$(GO) test -race ./...

# Race-detector pass over just the concurrency-bearing packages — the
# ring/fleet ingestion path, the pipeline package and the soak harness —
# plus the experiments runner's concurrent-sweep tests (>= 4 simultaneous
# executor/monitor/pipeline stacks, one per worker; about 15 s) and the
# benchmark module (perfbench/), whose fleet workload drives ingest from
# its own producer. This is what CI's dedicated race job runs, decoupled
# from the fast tier-1 job so a slow race schedule never blocks the main
# signal.
race-hot:
	$(GO) test -race ./internal/ingest/... ./internal/pipeline/... ./internal/soak/...
	$(GO) test -race -run 'TestRunCells|TestParallelSweepDeterministic|TestConcurrentSweeps' ./internal/experiments/
	cd perfbench && $(GO) test -race ./...

# Smoke-run the hot-path benchmarks: one iteration each, with allocation
# reporting (the allocs/op gates themselves live in TestSystemRunAllocs,
# pipeline.TestHotPathAllocs, changepoint.TestDetectorObserveAllocs and
# altdetect's TestObserveAllocs, which run under `make test`). The root
# line also runs the ablations (EXPERIMENTS.md): compiler annotations,
# inter-procedural regions, pruning, the size-scaled r_t and the
# Manhattan and top-k metrics run nowhere else.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSystemRun|BenchmarkFig13|BenchmarkAblation' -benchtime 1x -benchmem ./.
	$(GO) test -run '^$$' -bench 'BenchmarkObserve|BenchmarkPearson' -benchtime 1x -benchmem ./internal/lpd/ ./internal/stats/
	$(GO) test -run '^$$' -bench 'BenchmarkDetectorObserve|BenchmarkBBVObserve|BenchmarkWorkingSetObserve' -benchtime 1x -benchmem ./internal/changepoint/ ./internal/altdetect/
	$(GO) test -run '^$$' -bench 'BenchmarkProcessOverflow' -benchtime 1x -benchmem ./internal/region/
	$(GO) test -run '^$$' -bench 'BenchmarkDigestReport' -benchtime 1x -benchmem ./internal/vhash/

# Run every example under examples/ (about 0.2 s of runs after the
# build), failing on the first non-zero exit. They are the library
# facade's package-boundary consumers, and nothing else runs them.
examples:
	for e in examples/*/; do $(GO) run ./$$e > /dev/null || exit 1; done

# Fuzz every restore path that has a fuzz target for 10 s each (manual,
# about 100 s; not part of `make check`): the seven detector leaves, the
# pipeline and the fleet. The contract each target checks: a corrupt
# snapshot returns an error, leaves the target's state byte-identical and
# never panics. A failing input is written under the package's
# testdata/fuzz/ and replays as a seed in `make test`. The pipeline and
# fleet legs cap minimizing each new input at 5 s: every candidate costs a
# whole restore, and at the default 60 s cap the leg spends its time
# minimizing instead of exploring.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDetectorRestore$$' -fuzztime 10s ./internal/changepoint/
	$(GO) test -run '^$$' -fuzz '^FuzzBBVRestore$$' -fuzztime 10s ./internal/altdetect/
	$(GO) test -run '^$$' -fuzz '^FuzzWorkingSetRestore$$' -fuzztime 10s ./internal/altdetect/
	$(GO) test -run '^$$' -fuzz '^FuzzMonitorRestore$$' -fuzztime 10s ./internal/region/
	$(GO) test -run '^$$' -fuzz '^FuzzDetectorRestore$$' -fuzztime 10s ./internal/lpd/
	$(GO) test -run '^$$' -fuzz '^FuzzDetectorRestore$$' -fuzztime 10s ./internal/gpd/
	$(GO) test -run '^$$' -fuzz '^FuzzPerfTrackerRestore$$' -fuzztime 10s ./internal/gpd/
	$(GO) test -run '^$$' -fuzz '^FuzzPipelineRestore$$' -fuzztime 10s -fuzzminimizetime 5s ./internal/pipeline/
	$(GO) test -run '^$$' -fuzz '^FuzzFleetRestore$$' -fuzztime 10s -fuzzminimizetime 5s ./internal/ingest/

# The benchmark module's own tests (perfbench/ is a separate Go module,
# so the root `go test ./...` skips it): tiny runs of both workloads, the
# verdict gate, the latency estimator, and TestStoredDigestsMatchReference,
# which fails when perfbench/expected_digests.json has gone stale.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The repository benchmark (BENCHMARK.json): both declared workloads at
# the declared 45 s, untraced for the end-to-end metrics, then traced for
# the per-layer breakdown. Every run checks all verdict digests before it
# reports a number. Manual, about four minutes; see perfbench/main.go.
perfbench:
	for w in spec-replay fleet-full; do \
		python3 perfbench/run.py --workload $$w --seconds 45 --trace 0 || exit 1; \
		python3 perfbench/run.py --workload $$w --seconds 45 --trace 1 || exit 1; \
	done

# Regenerate results_full.txt: every figure and experiment at the paper's
# full scale, with per-benchmark detail. Manual, about four minutes on a
# 2-vCPU VM; not part of `make check`.
paper:
	$(GO) run ./cmd/experiments -fig all -detail > results_full.txt

# Long-run hardening harness (cmd/soak): millions of intervals through
# the full detector stack, asserting a steady heap and byte-identical
# verdict streams across mid-run kill/restore. Both stages run through
# soak.RunFleet: one stream, then 8 streams behind an ingest.Fleet; each
# compares a reference on 1 shard with per-item pushes against a
# kill/restore run on up to 4 shards with 16-interval batches. `soak` is
# the full acceptance run; `soak-short` is the minutes-free variant
# folded into `make check` and CI.
soak:
	$(GO) run ./cmd/soak -intervals 2000000

soak-short:
	$(GO) run ./cmd/soak -intervals 60000

check: build lint test bench examples perfbench-test soak-short

# Count the root module's lines of Go, non-test and test, leaving out the
# benchmark module (perfbench/), every testdata/ tree and hidden
# directories (.bench_build/, .git/): the net non-test delta each change
# states in CHANGES.md is the difference of two such counts.
GO_FILES = find . -name '*.go' -not -path './perfbench/*' -not -path '*/testdata/*' -not -path './.*'
loc:
	@printf 'non-test Go lines: %s\n' "$$($(GO_FILES) -not -name '*_test.go' -exec cat {} + | wc -l)"
	@printf 'test Go lines:     %s\n' "$$($(GO_FILES) -name '*_test.go' -exec cat {} + | wc -l)"
