# Local developer workflow, mirrored exactly by .github/workflows/ci.yml
# so "it passed make" and "it passed CI" mean the same thing.

GO ?= go

.PHONY: all build test race lint lint-self lint-fixtures vet golden chains-golden chaos bench bench-smoke bench-test frontier frontier-golden serve-smoke ci

all: build test vet lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the tier-1 race gate: the full ga + fourindex suites plus
# the concurrent job server under the race detector, plus the
# concurrency stress tests repeated to give interleavings a chance to
# differ.
race:
	$(GO) test -race ./internal/ga/... ./internal/fourindex/... ./internal/serve/...
	$(GO) test -race -count=5 -run 'TestStress' ./internal/ga/

# lint runs the project's own analyzer suite (see internal/analysis).
lint:
	$(GO) run ./cmd/fouridxlint ./...

# lint-self points the linter at its own analysis layer: the checkers
# must satisfy the disciplines they enforce (deterministic diagnostics,
# documented exports, clean error flow).
lint-self:
	$(GO) run ./cmd/fouridxlint ./internal/analysis/... ./cmd/fouridxlint

# lint-fixtures runs every analyzer's `// want` fixture suite plus the
# cfg/dataflow engine and loader tests.
lint-fixtures:
	$(GO) test -count=1 ./internal/analysis/...

vet:
	$(GO) vet ./...

# golden pins the Chrome trace export byte-for-byte and every
# schedule's fingerprint (event stream, C bits, counters, simulated
# clocks); regenerate with `go test ./internal/trace -update` or
# `go test ./internal/fourindex -run TestScheduleFingerprints -update`
# after an intentional schedule or cost-model change. The C bits rest on
# Dgemm's accumulation order, which the two blas tests pin against a
# plain loop, along with an allocation-free kernel at the schedules'
# GEMM shapes.
golden:
	$(GO) test -count=1 -run 'TestChromeTraceGolden' ./internal/trace/
	$(GO) test -count=1 -run 'TestDgemmBitwiseAccumulationOrder|TestDgemmSerialNoAllocs' ./internal/blas/
	$(GO) test -count=1 -run 'TestScheduleFingerprints' ./internal/fourindex/

# chains-golden pins the generalized bound engine to the hand-derived
# four-index closed forms bit-for-bit (thresholds, per-op bounds,
# config enumeration order, I/O floors, memory floors, capacity grids,
# full frontier curves) and checks the non-four-index chains end to end
# (see DESIGN.md §13).
chains-golden:
	$(GO) test -count=1 ./internal/lb/chain/ ./internal/lb/
	$(GO) test -count=1 -run 'TestAnalyzeChain|TestWriteChainReport|TestChainScenarios' ./internal/fourindex/

# chaos runs the seeded fault-plan suite under the race detector: every
# schedule against 50 random fault plans (bitwise-identical C or typed
# terminal error), l-slab checkpoint resume after an injected crash, and
# the hybrid driver's degradation path (see internal/fourindex/chaos_test.go
# and internal/faults).
chaos:
	$(GO) test -race -run 'Chaos' ./internal/fourindex/
	$(GO) test -race ./internal/faults/

# bench regenerates the checked-in benchmark baseline: the full matrix
# of {schedule} x {execute sizes, cost molecules} x {GOMAXPROCS} with
# wall-clock measurement (see internal/perf and README "Benchmarking").
bench:
	$(GO) run ./cmd/fouridx bench -o BENCH_fouridx.json -v

# bench-smoke runs the CI subset of the matrix and gates it against the
# checked-in baseline: deterministic accounting must match within 15%,
# wall times within 15% after median-ratio machine normalisation.
bench-smoke:
	$(GO) run ./cmd/fouridx bench -smoke -o /tmp/bench_smoke.json -baseline BENCH_fouridx.json -tolerance 0.15

# bench-test runs the repository benchmark's own tests. bench/ is a
# nested Go module, so the root `go test ./...` never reaches them.
bench-test:
	cd bench && $(GO) test ./...

# frontier regenerates the checked-in capacity-vs-bound frontier
# artifact (see README "Autotuning" and DESIGN.md §11).
frontier:
	$(GO) run ./cmd/fouridx frontier -o FRONTIER_fouridx.json

# frontier-golden fails the build when the checked-in artifact is stale,
# then gates the frontier-driven tuner against the benchmark baseline:
# its pick must never be slower than the per-point best in
# BENCH_fouridx.json.
frontier-golden:
	$(GO) run ./cmd/fouridx frontier -check -o FRONTIER_fouridx.json -gate -baseline BENCH_fouridx.json

# serve-smoke exercises the fouridxd job server end to end through its
# real binary: admission (202 + 422 over budget), SIGTERM drain with
# checkpoint + queue persistence, and restart-resume with a
# bitwise-identical result (see README "Serving" and DESIGN.md §12).
serve-smoke:
	./scripts/serve_smoke.sh

ci: build test vet lint lint-self lint-fixtures golden chains-golden frontier-golden race chaos bench-smoke bench-test serve-smoke
