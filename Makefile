GO ?= go

.PHONY: ci fmt vet vet-extra lint build test benchsuite-test race bench-smoke bench serve sweep-smoke client-smoke loadtest-smoke loadtest jobs-smoke recovery-smoke objsweep-smoke fuzz-smoke coldpath-smoke cluster-smoke objsweep figures-full

ci: fmt vet vet-extra build lint test benchsuite-test race sweep-smoke client-smoke loadtest-smoke jobs-smoke recovery-smoke objsweep-smoke fuzz-smoke coldpath-smoke cluster-smoke bench-smoke figures-full

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# impact-lint: the project-specific analyzer suite (see docs/lint.md).
# Any finding fails the build; suppress only with a reasoned
# //lint:ignore directive.
lint:
	$(GO) run ./cmd/impact-lint ./...

# Pinned third-party analyzers, best-effort: `go run` fetches them on
# toolchains with module access and runs them; on the network-isolated CI
# image the fetch fails fast and the step skips rather than fakes a pass.
STATICCHECK_VERSION ?= honnef.co/go/tools/cmd/staticcheck@2024.1.1
GOVULNCHECK_VERSION ?= golang.org/x/vuln/cmd/govulncheck@v1.1.3
vet-extra:
	@if $(GO) run $(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK_VERSION) ./...; \
	else \
		echo "vet-extra: staticcheck unavailable (offline toolchain); skipping"; \
	fi
	@if $(GO) run $(GOVULNCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run $(GOVULNCHECK_VERSION) ./...; \
	else \
		echo "vet-extra: govulncheck unavailable (offline toolchain); skipping"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# benchsuite is a nested module, so the root `go test ./...` never builds
# it; its traced replay calls the engine, expansion and cache APIs
# directly, so it is vetted and tested on its own.
benchsuite-test:
	cd benchsuite && $(GO) vet ./... && $(GO) test ./...

# The parallel experiment runners (sim.Fan's contract and its fan-out of
# each figure's runs, equal at GOMAXPROCS 1 and 4), Figure 11's read plan
# shared by its runs and its prefetch task (no goroutine left behind),
# Figure 12's workloads recording side by side, the sharded+deduped
# result cache, the async job lifecycle (including
# DELETE-races-the-worker-pool cancellation), the pack-backed restart
# path, the job journal with its graceful drain and crash recovery, the
# golden sweeps at 1 and 8 workers, the lock-free metrics, and the Go
# SDK must stay race-clean and deterministic.
race:
	$(GO) test -race ./internal/figures -run 'TestRunParallelMatchesSequential|TestFanOutMatchesAcrossWidths|TestSideChannel'
	$(GO) test -race ./internal/genomics
	$(GO) test -race ./internal/metrics
	$(GO) test -race ./internal/sim
	$(GO) test -race ./internal/workloads -run TestDefense
	$(GO) test -race ./internal/exp -run 'TestEngineCacheAndDeterminism|TestEngineDedupesWithinSweep|TestServerRunCacheHit|TestCacheCompute|TestConcurrentIdenticalRuns|TestJob|TestServerRestartDurability|TestStoreCorruptEntryReSimulates|TestJournal|TestGraceful|TestCrash|TestCancelBeats|TestRunPanic|TestPooledSweepParallelDeterminism|TestStreamingSweepMemoryBoundTrimmed|TestGolden|TestExpansionConcurrentRunAt'
	$(GO) test -race ./internal/exp/fsio
	$(GO) test -race ./internal/exp/pack
	$(GO) test -race ./internal/cluster
	$(GO) test -race ./pkg/client

# Quick regression signal on the allocation-free hot path (narrow cache
# hits, and 128-way hits and misses), the allocation ceiling of a cached
# POST /v1/run, every covert channel timed on a held machine, the
# genomics layer (the seeding index build, and Figure 11's side-channel
# sweep at -cpu 1, where its runs compute the read plan inline, and at
# -cpu 2, where the plan's prefetch task fills it beside them), Figure
# 12's defense runs, Figure 3's LLC way sweep once (0.1–0.2 s;
# its 128-way eviction run is the suite's widest cache), the quick figure
# suite inline and fanned out over two cores, the pack store's Get and
# dead-bundle boot, one job's fsynced journal records, and a journaled
# job's resume after a crash.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkCacheAccess|BenchmarkBankAccess|BenchmarkPEIExecute' -benchtime 100x -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkFig3LLCWaySweep' -benchtime 1x -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkFigureSuite/sequential' -cpu 1,2 -benchtime 1x -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkServerRun/cached$$' -benchtime 100x -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkFig9|BenchmarkDirectAccess|BenchmarkPnMAdaptive|BenchmarkFig12Defenses' -benchtime 3x -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkFig11SideChannel' -cpu 1,2 -benchtime 3x -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkBuildIndex' -benchtime 3x -benchmem ./internal/genomics
	$(GO) test -run xxx -bench 'BenchmarkPackGet|BenchmarkCompact' -benchtime 3x -benchmem ./internal/exp/pack
	$(GO) test -run xxx -bench 'BenchmarkJournalRecord/serial' -benchtime 100x -benchmem ./internal/exp
	$(GO) test -run xxx -bench 'BenchmarkJobResume' -benchtime 1x -benchmem ./internal/exp

# Cold-path round-2 regressions: pooled-machine determinism (Machine.Reset
# must be provably state-free, sequentially and under 8-way contention,
# for the engine's pool and for the figures' pool), the expansion and
# sweep goldens, the overflow-safe grid guard, a trimmed streaming
# memory-bound run, and the >= 2x pooled cold-run speedup pin. The full
# 10^5-run memory bound runs in `make test` (it is testing.Short-gated,
# not smoke-gated).
coldpath-smoke:
	$(GO) test ./internal/exp -count=1 -run 'TestPooledMachineDeterminism|TestGolden|TestGridTooLarge|TestServerGridTooLarge|TestStreamingSweepMemoryBoundTrimmed'
	$(GO) test ./internal/figures -count=1 -run TestPooledFiguresMatchFresh
	$(GO) test -race ./internal/exp -count=1 -run TestPooledSweepParallelDeterminism
	$(GO) test -run xxx -bench 'BenchmarkColdRun/pooled|BenchmarkSweepExpand/lazy' -benchtime 3x -benchmem .

# The -full paper figures, pinned by digest: the SHA-256 of
# `impact-figures -full -json` must equal the committed
# cmd/impact-figures/testdata/full.sha256. It is the only check that
# reaches the -full point lists (Figures 2, 3 and 9, §7.4). It takes ~5 s
# on 2 vCPUs, Figure 12 ~3.5 s of it, and stays out of `make test`, which
# runs only quick scale.
figures-full:
	@want=$$(cat cmd/impact-figures/testdata/full.sha256); \
	got=$$($(GO) run ./cmd/impact-figures -full -json | sha256sum | cut -d' ' -f1); \
	if [ "$$got" = "$$want" ]; then \
		echo "figures-full: -full figures hash to $$want"; \
	else \
		echo "figures-full: -full figures hash to $$got, want $$want"; exit 1; \
	fi

bench:
	$(GO) test -bench . -benchmem .

# Run the result-cached experiment HTTP service (POST /v1/run, GET
# /v1/figures/{id}, GET /v1/scenarios, GET /v1/metrics, GET /healthz).
serve:
	$(GO) run ./cmd/impact-server

# Short load-test against an in-process server: 8 workers, a mixed
# run/figure schedule with a cold slice, -smoke asserting zero errors,
# nonzero QPS, and a nonzero cache hit rate.
loadtest-smoke:
	$(GO) run ./cmd/impact-bench -inprocess -workers 8 -requests 64 -run-frac 0.5 -cold 0.1 -smoke

# The full reproducible benchmark run recorded in docs/benchmark.md.
loadtest:
	$(GO) run ./cmd/impact-bench -inprocess -workers 8 -duration 30s -run-frac 0.5 -cold 0.05

# Object-count sweep smoke: preload a few thousand synthetic results
# into the pack store and time random Gets, -smoke asserting zero
# misses. The full 10^3..10^6 sweep recorded in docs/benchmark.md is
# `make objsweep`.
objsweep-smoke:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/impact-bench -objects 2000 -gets 4000 -data-dir $$tmp/pack -smoke; \
	status=$$?; rm -rf $$tmp; exit $$status

# The full object-count sweep behind the docs/benchmark.md table: the
# pack store from 10^3 to 10^6 objects.
objsweep:
	@tmp=$$(mktemp -d); \
	for n in 1000 10000 100000 1000000; do \
		$(GO) run ./cmd/impact-bench -objects $$n -gets 200000 -data-dir $$tmp/pack-$$n -json; \
	done; \
	rm -rf $$tmp

# Short fuzz pass over every untrusted-byte decoder — the pack store's
# needle frames and index file, the record framing, the job journal's
# log replay, and the spec documents POST /v1/run and POST /v1/jobs
# accept — on top of the checked-in seed corpora.
fuzz-smoke:
	$(GO) test ./internal/exp/pack -run xxx -fuzz FuzzDecodeNeedle -fuzztime 5s
	$(GO) test ./internal/exp/pack -run xxx -fuzz FuzzDecodeIndex -fuzztime 5s
	$(GO) test ./internal/exp/fsio -run xxx -fuzz FuzzDecodeRecord -fuzztime 5s
	$(GO) test ./internal/exp -run xxx -fuzz FuzzParseSpec -fuzztime 5s
	$(GO) test ./internal/exp -run xxx -fuzz FuzzJournalRecover -fuzztime 5s

# Cluster smoke: three in-process nodes over real listeners, a sweep
# through one node, a peer partitioned mid-sweep on another — every
# response must stay byte-identical and the survivors must keep serving
# the dead node's keys (see internal/cluster's TestClusterSmoke).
cluster-smoke:
	$(GO) test -run TestClusterSmoke -count=1 ./internal/cluster

# Crash-recovery smoke: build the real server binary, kill it -9 mid-job,
# restart it on the same -data-dir, and require the interrupted job to
# complete with a byte-identical sweep (see cmd/impact-server's
# TestRecoverySmoke).
recovery-smoke:
	$(GO) test -run TestRecoverySmoke -count=1 ./cmd/impact-server

# Async job API smoke: the full submit → stream → poll lifecycle against
# an in-process server backed by a temp durable store, 8 workers, -smoke
# asserting zero errors, nonzero QPS, and a nonzero cache hit rate.
jobs-smoke:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/impact-bench -inprocess -jobs -data-dir $$tmp/store -workers 8 -requests 32 -run-frac 1 -cold 0.1 -smoke; \
	status=$$?; rm -rf $$tmp; exit $$status

# Drive a full sweep through pkg/client against an in-process server —
# impact-sweep's default mode is exactly that path — so the SDK, the
# typed pkg/api contract, and the server stay wired together end to end.
client-smoke:
	@tmp=$$(mktemp -d); status=1; \
	if $(GO) run ./cmd/impact-sweep -spec examples/sweep-llc.json -json > $$tmp/sweep.json; then \
		if $(GO) run ./cmd/impact-sweep -spec examples/sweep-llc.json -json > $$tmp/sweep2.json \
		&& cmp $$tmp/sweep.json $$tmp/sweep2.json; then \
			echo "client-smoke: pkg/client sweep reproducible against an in-process server"; status=0; \
		else \
			echo "client-smoke: repeated pkg/client sweeps differ"; \
		fi; \
	fi; \
	rm -rf $$tmp; exit $$status

# The sweep CLI must produce byte-identical output regardless of the
# worker count (every run is deterministic and content-addressed).
sweep-smoke:
	@tmp=$$(mktemp -d); status=1; \
	if $(GO) run ./cmd/impact-sweep -spec examples/sweep-llc.json -workers 1 -json > $$tmp/w1.json \
	&& $(GO) run ./cmd/impact-sweep -spec examples/sweep-llc.json -workers 8 -json > $$tmp/w8.json; then \
		if cmp $$tmp/w1.json $$tmp/w8.json; then \
			echo "sweep-smoke: workers=1 and workers=8 byte-identical"; status=0; \
		else \
			echo "sweep-smoke: output depends on worker count"; \
		fi; \
	fi; \
	rm -rf $$tmp; exit $$status
