# LAQy development targets. CI (.github/workflows/ci.yml) calls these
# targets — `make all` is its build/vet/laqy-vet/test step — so a gate is
# defined once, here.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test lint vet laqy-vet benchmark-check race stress servestress shardchaos faults fuzz-smoke bench-smoke bench-pair lines clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint = the compiler-checkable gates plus the project's own analyzer suite.
lint: vet laqy-vet

vet:
	$(GO) vet ./...

# laqy-vet is the custom static-analysis suite (tools/laqyvet): five
# per-package checks (ctxpoll, rngsource, hotalloc, errchecklite,
# obscheck) plus one program-scope semantic check (goleak). See
# docs/STATIC_ANALYSIS.md. The second invocation is the self-check: the
# analyzer framework and the commands are held to the same rules they
# enforce.
laqy-vet:
	$(GO) run ./cmd/laqy-vet ./...
	$(GO) run ./cmd/laqy-vet ./tools/laqyvet/... ./cmd/...

# The repo benchmark (benchmark/, BENCHMARK.json) is a module of its own,
# so `./...` above never reaches it: vet and test it here, so a root-API
# change that breaks it fails CI instead of the next benchmark run.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# CI-sized bench pass: every laqy-bench experiment id and a replay of the
# short-running sequence at smoke scale, writing the sampler metrics
# snapshot CI uploads as an artifact (docs/OBSERVABILITY.md), then
# one iteration of every kernel bench — the selection kernels, the fused
# aggregate and the star-join probes — so their fixtures and structural
# assertions (which cases fuse, which join tables are arrays) cannot rot
# unseen, one reuse hit of each kind (BenchmarkReuseHit) at GOMAXPROCS 1
# and 2 — its estimate loop and merges inline, then spread over a helper —
# whose allocs/op column is the per-hit allocation count, one served
# hit over loopback HTTP of each kind (BenchmarkServeHit: the same hit plus
# the response encoder and the wire), and the admission benches (the
# Algorithm R oracle, and stratified builds in the ingest, Q1 and Q2 shapes).
bench-smoke:
	$(GO) run ./cmd/laqy-bench -smoke -exp all -replay short -metricsout bench-metrics.json
	$(GO) test -run '^$$' -bench 'Select|FusedAggregate|StarJoin' -benchtime 1x \
		./internal/expr ./internal/engine
	$(GO) test -run '^$$' -bench 'ReuseHit' -benchtime 1x -cpu 1,2 .
	$(GO) test -run '^$$' -bench 'ServeHit' -benchtime 1x -benchmem ./internal/server
	$(GO) test -run '^$$' -bench 'Admission' -benchtime 1x ./internal/sample

# Paired repo-benchmark runs of two git revisions (tools/benchpair.sh): each
# built from `git archive`, PAIRS alternating runs of benchmark/run.sh per
# workload and seed, then every end-to-end metric's median [q1, q3] per side
# and the pairs the new side won. WORKLOADS and SEEDS are comma lists (empty
# WORKLOADS: all of BENCHMARK.json); every run lasts its run_seconds.
BASE ?= HEAD~1
NEW ?= HEAD
PAIRS ?= 10
WORKLOADS ?=
SEEDS ?= 1
bench-pair:
	bash tools/benchpair.sh -n $(PAIRS) -seed $(SEEDS) $(if $(WORKLOADS),-w $(WORKLOADS)) $(BASE) $(NEW)

# The north star's size metric: lines of the tracked non-test Go files
# outside benchmark/ and testdata/, per top-level directory ("." is the
# root package) and in total. A report, not a gate.
lines:
	@git grep -c '' -- '*.go' ':!:*_test.go' ':!:benchmark/' ':!:**/testdata/**' | awk -F: '\
		{ d = $$1 ~ /\// ? substr($$1, 1, index($$1, "/") - 1) : "."; n[d] += $$2; total += $$2 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", total }'

# The sampling engine is morsel-parallel; every PR must pass under the race
# detector. -short skips the statistical long-haul tests.
race:
	CGO_ENABLED=1 $(GO) test -race -short ./...

# The robustness gate (docs/GOVERNANCE.md): the governor, the one
# work-claiming driver (internal/par) and the degradation suites twice
# under the race detector to shake out ordering-dependent bugs, then the 64-client chaos storm (chaos_test.go) — mixed
# exact/approx load, random deadlines and cancellations, injected store
# faults — which writes the governor metrics snapshot CI uploads as an
# artifact.
stress:
	CGO_ENABLED=1 $(GO) test -race -count=2 ./internal/governor ./internal/par
	CGO_ENABLED=1 $(GO) test -race -count=2 \
		-run 'TestGovernor|TestDeadline|TestOverload|TestDefaultQueryTimeout|TestConcurrentEvictionNeverDropsNewest' \
		. ./internal/store
	CGO_ENABLED=1 LAQY_STRESS_METRICS_OUT=$(CURDIR)/stress-metrics.json \
		$(GO) test -race -count=1 -run 'TestChaosStorm' -v .

# The serving robustness gate (docs/SERVING.md): the connection-chaos
# harness against the laqyd HTTP surface — 64 clients x 4 tenants under
# -race with slowloris connections, mid-stream disconnects, SIGTERM
# mid-storm, and iofault-injected sample saves. Asserts fair per-tenant
# degradation, zero goroutine leaks, every 429 carrying a governor-derived
# Retry-After, and a clean drain. Writes the server metrics snapshot CI
# uploads as an artifact.
servestress:
	CGO_ENABLED=1 LAQY_SERVESTRESS_METRICS_OUT=$(CURDIR)/servestress-metrics.json \
		$(GO) test -race -count=1 -run 'TestConnectionChaos' -v ./internal/server

# The distributed robustness gate (docs/SHARDING.md, "Distributed"): the
# multi-process shard chaos harness — three real laqyd shard daemons in
# child processes, one SIGKILLed and one SIGSTOPped while their builds are
# in flight behind latency-injecting proxies. Asserts the 206 partial
# answer with per-shard drop attribution, extrapolated estimates near
# ground truth, widened confidence intervals, retries bounded by the
# policy, and zero goroutine leaks. Writes the laqy_shard_* metrics
# snapshot CI uploads as an artifact.
shardchaos:
	CGO_ENABLED=1 LAQY_SHARDCHAOS_METRICS_OUT=$(CURDIR)/shardchaos-metrics.json \
		$(GO) test -race -count=1 -run 'TestShardChaos' -v ./internal/shard

# The durability gate: the fault-injection filesystem model, the
# crash-at-every-syscall replay of SaveFile, and the salvage/bit-flip
# suites (docs/DURABILITY.md).
faults:
	$(GO) test -count=1 ./internal/iofault
	$(GO) test -count=1 -run 'TestCrash|TestSaveFile|TestConcurrentSaveFiles|TestSalvage|TestEveryBitFlip|TestLoadRejects' ./internal/store

# Bounded fuzz smoke: each target gets FUZZTIME on top of the committed
# seed corpora under testdata/fuzz/. Continuous fuzzing: raise FUZZTIME or
# run `go test -fuzz <Target>` directly.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) -run '^$$' ./internal/sql
	$(GO) test -fuzz=FuzzPlan -fuzztime=$(FUZZTIME) -run '^$$' ./internal/sql
	$(GO) test -fuzz=FuzzSetAlgebra -fuzztime=$(FUZZTIME) -run '^$$' ./internal/algebra
	$(GO) test -fuzz=FuzzStoreLoad -fuzztime=$(FUZZTIME) -run '^$$' ./internal/store
	$(GO) test -fuzz=FuzzReservoirDecode -fuzztime=$(FUZZTIME) -run '^$$' ./internal/shard
	$(GO) test -fuzz=FuzzJoinProbe -fuzztime=$(FUZZTIME) -run '^$$' ./internal/engine
	$(GO) test -fuzz=FuzzMergeN -fuzztime=$(FUZZTIME) -run '^$$' ./internal/sample

clean:
	$(GO) clean ./...
