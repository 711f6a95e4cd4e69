# Tier-1 gate plus the deeper checks. `make check` is what CI should
# run; `make tier1` is the fast edit loop.

GO ?= go

.PHONY: all tier1 vet fmt race test benchmark-test bench bench-smoke bench-placement bench-kernels bench-spill spill-test cluster-test obs-test serve-test bench-serve fuzz stages trace check

all: tier1

# The repo's tier-1 gate: everything builds, all tests pass.
tier1:
	$(GO) build ./...
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting gate (what the CI Format step runs): fails listing any
# file gofmt would rewrite.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Full test suite under the race detector; the stage scheduler runs
# independent shuffle map-sides concurrently, and the counter schema's
# live sets (internal/obs) are written by task goroutines while stage
# ends and the report path publish them, and internal/plan's row kernels share a
# pool of scratch frames across concurrent tasks, so -race is
# load-bearing. ./... includes
# the schema's package, the cluster/jobs Report|Telemetry|Snapshot|
# ClusterMerged tests and the server/core Backend|ClusterBacked tests
# that CI's race step selects.
race:
	$(GO) test -race ./...

test: tier1 race

# Narrow-chain fusion benchmarks with allocation counts.
bench:
	$(GO) test -run '^$$' -bench 'NarrowChain|Fig4B' -benchmem -benchtime 10x .

# Where the linker put the benchmark's yardstick: harness.yardstickChunk's
# address in cmd/bench built as benchmark/run.sh builds it, and its offset
# mod 64. The yardstick scales every end-to-end time and its speed follows
# that offset, so compare two builds end to end only at equal offsets.
bench-placement:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	(cd benchmark && GOWORK=off GOTOOLCHAIN=local $(GO) build -o "$$tmp/bench" ./cmd/bench) || exit 1; \
	a=$$($(GO) tool nm "$$tmp/bench" | awk '$$3 == "repro/benchmark/harness.yardstickChunk" { print $$1 }'); \
	[ -n "$$a" ] || { echo "harness.yardstickChunk not found"; exit 1; }; \
	echo "harness.yardstickChunk 0x$$a, $$((0x$$a % 64)) mod 64"

# Local GEMM kernel GFLOP/s table (naive/ikj/blocked/blocked-par), the
# tile product decomposed per micro-kernel at the engine's size (call =
# pack-a + pack-b + packed) and inside a group-by-join cell, plus Go
# benchmark numbers with allocation counts for the pooled GBJ path.
bench-kernels:
	$(GO) run ./cmd/sacbench -fig kernels
	$(GO) test -run '^$$' -bench 'GemmTile|GBJCell' -benchtime 300ms ./internal/linalg
	$(GO) test -run '^$$' -bench 'Kernels_' -benchmem -benchtime 2x .

# Out-of-core test gate: the end-to-end spill tests under a tight
# process-wide budget, then the cluster parity suites under the same
# budget, then under race the row codecs (exact sizes, the
# construction-time panic, MLlib's product off one process) beside the
# GBJ wire count, then the coordinate fallback (the min-plus product)
# spilling its comp.Value rows under sac -mem (what the CI spill job
# runs).
spill-test:
	SAC_MEMORY_BUDGET=64MiB $(GO) test ./... -run OutOfCore
	SAC_MEMORY_BUDGET=64MiB $(GO) test ./internal/jobs ./internal/dataflow -run 'Parity|SPMD|ClusterQuery|GBJWire'
	$(GO) test -race -count=1 -run 'GBJWire|RowCodecsRegistered|RowsRegistered|Unregistered|MLlibMultiply|RunBytesAreCodecSizes|GBJEstimate' ./internal/spill ./internal/dataflow ./internal/tiled ./internal/plan ./internal/jobs
	$(GO) run ./cmd/sac -mem 64KiB -n 64 -tile 16 -query 'tiled(n,n)[ ((i,j), min/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a+b, group by (i,j) ]' | grep -E 'spilledBytes=[1-9]'

# Distributed-runtime gate (what the CI distributed job runs): the
# cluster protocol/driver/worker tests plus the driver + 3 sacworker
# subprocess e2e suite with its SIGKILL worker-loss test, then the
# in-process SPMD engine tests and the group-by-join's cell per rank
# under race, then the worker buffer pool's
# leases and exact blob sizes under race, repeated (the first line runs
# the poisoned Fig-4 suite and the steady-state allocation pin).
cluster-test:
	$(GO) test -count=1 ./internal/cluster ./internal/jobs
	$(GO) test -race -count=1 -run 'SPMD|NoSelfBoundBlob|MetricsIsolation|ActionRowsMatchAcrossWorlds|RankRowCoversItsTasks' ./internal/dataflow
	$(GO) test -race -count=1 -run 'GBJWire|GBJOneCellPerRank|GBJCellSpreadsOverSlots' ./internal/jobs ./internal/tiled
	$(GO) test -race -count=5 -run 'JobEndWaitsForServes|BufferPool|GroupedBlobSizedExactly' ./internal/cluster ./internal/memory ./internal/spill

# Observability-plane gate: the metrics registry (concurrent scrape
# hammer), span ring buffer, cluster trace merge and span replay, and
# debug HTTP endpoints, all under the race detector.
obs-test:
	$(GO) test -race -count=1 ./internal/obs ./internal/trace ./internal/debug

# Query-service gate (what the CI serve job runs first): the server
# package under race — pool, plan cache (incl. the whitespace/structure
# property tests), admission semaphore, HTTP endpoints, drain e2es —
# plus the estimates admission prices, a local Run that must keep no
# cache or reservation, and the worker drain suite.
serve-test:
	$(GO) test -race -count=1 ./internal/server ./internal/stats
	$(GO) test -race -count=1 -run RunLeavesNothingCached ./internal/core
	$(GO) test -count=1 -run Drain ./internal/cluster ./internal/jobs

# Replay a mixed 2000-query workload against an in-process sacserver
# and write p50/p99/qps + plan-cache/admission counters to
# BENCH_serve.json. The hit-rate floor is the compile-amortization
# tripwire: parameterized re-runs must skip parse/comp/opt.
bench-serve:
	$(GO) run ./cmd/sacload -local -queries 2000 -concurrency 32 \
		-n 64 -tile 16 -out BENCH_serve.json -require-hit-rate 0.9

# One iteration of every benchmark — catches bit-rotted bench code
# without paying for real measurements (the CI bench smoke).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Short local fuzz pass over the targets the nightly CI job runs for 5
# minutes each: the codec/wire layer (the coordinate path's value codec,
# the tile-aggregation partial's, the driver's merge of result pieces and
# the job message's query params included), the tile-kernel compiler
# against the reference evaluator, and GEMM shapes through every
# micro-kernel this CPU has.
fuzz:
	$(GO) test ./internal/spill -run '^$$' -fuzz '^FuzzStreamPrimitives$$' -fuzztime 10s
	$(GO) test ./internal/spill -run '^$$' -fuzz '^FuzzFloat64SliceCodec$$' -fuzztime 10s
	$(GO) test ./internal/spill -run '^$$' -fuzz '^FuzzReaderNeverPanics$$' -fuzztime 10s
	$(GO) test ./internal/spill -run '^$$' -fuzz '^FuzzGroupedDecode$$' -fuzztime 10s
	$(GO) test ./internal/dataflow -run '^$$' -fuzz '^FuzzDenseCodecDecode$$' -fuzztime 10s
	$(GO) test ./internal/spill -run '^$$' -fuzz '^FuzzBlockCompress$$' -fuzztime 10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzChunkFrame$$' -fuzztime 10s
	$(GO) test ./internal/jobs -run '^$$' -fuzz '^FuzzMergeResult$$' -fuzztime 10s
	$(GO) test ./internal/jobs -run '^$$' -fuzz '^FuzzQueryParams$$' -fuzztime 10s
	$(GO) test ./internal/plan -run '^$$' -fuzz '^FuzzKernelMatchesInterpreter$$' -fuzztime 10s
	$(GO) test ./internal/plan -run '^$$' -fuzz '^FuzzValueCodec$$' -fuzztime 10s
	$(GO) test ./internal/plan -run '^$$' -fuzz '^FuzzAggBlockCodec$$' -fuzztime 10s
	$(GO) test ./internal/diablo -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s
	$(GO) test ./internal/linalg -run '^$$' -fuzz '^FuzzGemmShapes$$' -fuzztime 10s

# Figure 4.B under a memory budget: the tables grow spilled-bytes and
# merge-pass columns showing the out-of-core subsystem at work.
bench-spill:
	$(GO) run ./cmd/sacbench -fig 4b -sizes 300,400 -mem 2MiB

# Per-stage timing table for a GBJ multiply.
stages:
	$(GO) run ./cmd/sacbench -fig stages -sizes 400

# Quick traced GBJ multiply: -analyze records its spans in the query's
# record, and `sac history -chrome` writes them as trace.json; load it in
# chrome://tracing or https://ui.perfetto.dev.
trace:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/sac" ./cmd/sac && \
	"$$tmp/sac" -n 300 -eventlog "$$tmp/eventlog" \
		-analyze 'tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]' >/dev/null && \
	"$$tmp/sac" history -chrome trace.json "$$tmp"/eventlog/query-*.jsonl >/dev/null

# The benchmark is a module of its own (benchmark/go.mod replaces repro
# with ../), so the root ./... never builds it: an API change under
# internal/ that breaks benchmark/harness/adapter.go shows up only here.
# To measure a change: bash benchmark/run.sh (see benchmark/README.md).
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

check: vet tier1 race benchmark-test
