GO ?= go

.PHONY: all build vet lint test race race-hot bench perfbench-test perfbench soak soak-short check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Run go vet plus the phaselint suite (internal/lint): single-owner leak,
# determinism, hot-path allocation, payload-switch exhaustiveness,
# snapshot-completeness, bounded-state, batch-wrapper and atomic-discipline
# checks over the whole module.
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
# ring/fleet ingestion path, the pipeline sweeps and the soak harness —
# plus the benchmark module (perfbench/), whose fleet workload drives
# ingest from its own producer. This is what CI's dedicated race job
# runs, decoupled from the fast tier-1 job so a slow race schedule never
# blocks the main signal.
race-hot:
	$(GO) test -race ./internal/ingest/... ./internal/pipeline/... ./internal/soak/...
	cd perfbench && $(GO) test -race ./...

# Smoke-run the hot-path benchmarks: one iteration each, with allocation
# reporting (the allocs/op gates themselves live in TestSystemRunAllocs,
# pipeline.TestHotPathAllocs, changepoint.TestDetectorObserveAllocs and
# altdetect's TestObserveAllocs, which run under `make test`).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSystemRun|BenchmarkFig13' -benchtime 1x -benchmem ./.
	$(GO) test -run '^$$' -bench 'BenchmarkObserve|BenchmarkPearson' -benchtime 1x -benchmem ./internal/lpd/ ./internal/stats/
	$(GO) test -run '^$$' -bench 'BenchmarkDetectorObserve|BenchmarkBBVObserve|BenchmarkWorkingSetObserve' -benchtime 1x -benchmem ./internal/changepoint/ ./internal/altdetect/

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

# Long-run hardening harness (cmd/soak): millions of intervals through
# the full detector stack, asserting a steady heap and byte-identical
# verdict streams across mid-run kill/restore — first single-stream, then
# at fleet scale (8 streams behind an ingest.Fleet, reference on 1 shard
# vs kill/restore on 4). `soak` is the full acceptance run; `soak-short`
# is the minutes-free variant folded into `make check` and CI.
soak:
	$(GO) run ./cmd/soak -intervals 2000000

soak-short:
	$(GO) run ./cmd/soak -intervals 60000

check: build lint test bench perfbench-test soak-short
