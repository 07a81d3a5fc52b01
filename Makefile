GO ?= go

# BENCHTIME scales the bench-json micro-benchmarks; ci overrides it to 1x
# so the harness is smoke-tested without paying for stable numbers.
# PIPELINE_BENCHTIME scales the end-to-end discovery benchmark
# separately: at over a second per op, the default -benchtime 1s runs it
# for exactly one iteration, so the recorded number carries first-run
# noise (pool/page-cache warm-up). 5x keeps the recording honest without
# making bench-json take minutes.
# BENCH_OUT is where bench-json writes its JSON; the ci smoke discards it
# so a ci run never clobbers the committed performance trajectory.
BENCHTIME ?= 1s
PIPELINE_BENCHTIME ?= 5x
BENCH_OUT ?= BENCH_pipeline.json

.PHONY: ci fmt-check vet lint lint-smoke build test-short test test-race \
	test-persist test-dist test-obs test-sweep bench bench-json \
	bench-json-smoke bench-diff bench-smoke

# ci is the tier-1 gate: formatting, static checks (go vet plus the
# project's own bpvet analyzers), build, fast tests, the race detector
# over the whole tree, the persistence suite, the distributed-execution
# suite, the observability suite, the batch-sweep suite, a 1x smoke of
# the bench-json harness so it cannot bit-rot, and the repo benchmark's
# smoke test.
ci: fmt-check vet lint build test-short test-race test-persist test-dist test-obs test-sweep bench-json-smoke bench-smoke

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs cmd/bpvet, the project-specific analyzer suite (keyfields,
# locksafe, spanend, codecreg, noalloc — see the README "Static
# analysis" section), then proves the gate still bites: each analyzer's
# deliberate-violation corpus must make bpvet exit non-zero.
lint:
	$(GO) run ./cmd/bpvet ./...
	@$(MAKE) --no-print-directory lint-smoke

lint-smoke:
	@for dir in \
		internal/analysis/testdata/keyfields/bad \
		internal/analysis/testdata/locksafe/bad/service \
		internal/analysis/testdata/spanend/bad \
		internal/analysis/testdata/codecreg/bad \
		internal/analysis/testdata/noalloc/bad; do \
		if $(GO) run ./cmd/bpvet ./$$dir >/dev/null 2>&1; then \
			echo "lint-smoke: bpvet did not flag $$dir"; exit 1; fi; \
	done; echo "lint-smoke: bpvet flags all violation corpora"

build:
	$(GO) build ./...

# test-short skips the slow experiment sweeps (< 1 minute).
test-short:
	$(GO) test -short ./...

# test runs everything, including the full experiment smoke sweeps.
test:
	$(GO) test ./...

# test-race runs the whole tree under the race detector (-short skips
# the slow experiment sweeps, which test-persist/test-dist/test-obs
# already cover under -race where concurrency matters). It used to gate
# a hand-picked package list; a new concurrent package is now covered the
# day it lands instead of when someone remembers to add it here.
test-race:
	$(GO) test -race -short ./...

# test-persist exercises the persistent cache store and every layer's
# warm-restart path (store scan/eviction/corruption recovery, scheduler,
# HTTP service, batch runner) against temp directories, under the race
# detector.
test-persist:
	$(GO) test -race ./internal/cachestore/...
	$(GO) test -race -run 'Persist|WarmRestart|RestartServes' ./internal/sched/... ./internal/service/... ./internal/experiments/... .

# test-dist exercises distributed execution end to end under the race
# detector: an in-process worker + coordinator pair over httptest (golden
# equivalence vs the local path, worker death mid-study, dead-fleet local
# fallback, cancellation of in-flight remote units, cross-process trace
# propagation and grafting) plus the executor layer's unit tests.
test-dist:
	$(GO) test -race -run 'Distributed|Worker|Executor|UnitRequest|LongPoll' \
		./internal/sched/... ./internal/service/...

# test-obs exercises the observability layer under the race detector: the
# registry/exposition/tracer/logger unit tests (graft re-basing, event
# ring eviction, /debug/events filtering), plus the end-to-end smokes
# that run studies against live servers and assert the key /metrics
# series are present and non-zero, the trace endpoint serves a rooted
# span tree, and a two-worker study's trace merges the grafted worker
# subtrees into one tree.
test-obs:
	$(GO) test -race ./internal/obs/...
	$(GO) test -race -run 'MetricsEndToEnd|TraceEndToEnd|InlineCollections|DistributedTracePropagation' \
		./internal/sched/... ./internal/service/...

# test-sweep exercises the batch sweep compiler end to end under the race
# detector: planner-level dedup/subsumption accounting and the golden
# batch-vs-serial byte-identity invariant (internal/sched), the
# POST /studies:batch service surface with cancellation cascades and the
# 2-worker fleet equivalence run (internal/service), and the runner's
# batch pre-warm path (internal/experiments).
# -timeout 30m: the sched leg's golden equivalence runs (batch plus a
# serial reference per member) exceed go test's default 10m per-package
# budget under the race detector's ~10x slowdown.
test-sweep:
	$(GO) test -race -timeout 30m -run 'Sweep|BatchSweep|BatchStudies|StudySpecs' \
		./internal/sched/... ./internal/service/... ./internal/experiments/...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# bench-smoke runs the repo benchmark's own smoke test on shrunk
# workloads. perfbench is a separate module, so the root build never
# compiles its calls into sched and service; this leg does, and checks
# every declared metric is emitted.
bench-smoke:
	cd perfbench && $(GO) test .

# bench-json records the signature-pipeline performance trajectory: the
# mem/pin/sigvec micro-benchmarks, the sweep-planner compile benchmark,
# plus end-to-end discovery and the two layers its time splits between
# (k-means clustering and a native cache-modelled run), parsed into
# BENCH_pipeline.json (fails if any benchmark fails or produces no
# results). Each invocation APPENDS a run entry to the trajectory, so the
# history across PRs is preserved; see cmd/benchjson. The root-package
# benchmarks run in their own invocation at PIPELINE_BENCHTIME
# iterations (see the variable's comment); if either invocation fails,
# benchjson sees the FAIL line and refuses to record.
bench-json:
	{ $(GO) test -run '^$$' -benchmem -benchtime $(BENCHTIME) \
		-bench 'StackDist|^BenchmarkStream|BuildReference|BuilderSparse' \
		./internal/mem ./internal/pin ./internal/sigvec; \
	  $(GO) test -run '^$$' -benchmem -benchtime $(BENCHTIME) \
		-bench 'SweepPlanner' ./internal/sched; \
	  $(GO) test -run '^$$' -benchmem -benchtime $(PIPELINE_BENCHTIME) \
		-bench 'DiscoveryPipeline|KMeansClustering|NativeRunHPCG' .; } \
		| $(GO) run ./cmd/benchjson -out $(BENCH_OUT)

# bench-json-smoke is the ci wiring: one iteration per benchmark, just to
# prove the harness and the JSON emitter stay healthy; the output is
# discarded rather than overwriting the recorded trajectory.
bench-json-smoke: BENCHTIME = 1x
bench-json-smoke: PIPELINE_BENCHTIME = 1x
bench-json-smoke: BENCH_OUT = /dev/null
bench-json-smoke: bench-json

# bench-diff compares the two newest runs of the recorded trajectory and
# fails on regressions (>10% ns/op on the same CPU, or any allocation on
# a benchmark the previous run pinned at zero allocs). Run bench-json
# first to record the candidate run.
bench-diff:
	$(GO) run ./cmd/benchjson -diff $(BENCH_OUT)
