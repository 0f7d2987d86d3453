# Development targets for the cuisinevol reproduction.
#
#   make check           CI-grade gate: gofmt + vet + build + race tests + allocs/op gate
#                        + bench smoke + corpus roundtrip + live-index soak
#                        + servebench self-test + paper-check
#   make ci              the test job of .github/workflows/ci.yml: gofmt + vet + build + race tests
#   make serve           run the HTTP analytics service on :8080
#   make fuzz            run every fuzz target for FUZZTIME (default 30s) each
#   make loadtest        race-enabled overload/loadtest suite for the server
#   make loadtest-cluster  3-node ring invariant harness under -race
#   make corpus-roundtrip  import → export → re-import fingerprint gate via the CLI
#   make paper-check     rerun `cuisinevol all` at scale 1 and diff it against results/
#   make servebench-test   the serving benchmark's self-test (its own module)
#   make bench-baseline  full benchmark run, recorded to BENCH_fig_pipeline.json
#   make bench-smoke     1-iteration benchmark pass (fast; JSON to .bench_build/, not the baseline)
#   make loc             non-test Go line count, without servebench/ and examples/

GO ?= go

# Per-target fuzzing budget for `make fuzz` (the CI smoke uses the same).
FUZZTIME ?= 30s

# The perf-trajectory benchmarks: the FP-Growth and Eclat mining kernels,
# the Fig 3/4 pipelines they feed, the arena simulation kernel behind
# them, and the build-once corpus index (build cost, warm-index queries,
# and the cold-mine point they beat, and the low-support mines of the
# append_reads serving workload), and one served cache hit per hot
# endpoint (ServeHit), and the replicate mine's own stage
# (SpectrumOfSets), and the paper-scale low-support mines of Eclat's
# decoded roots (MineTopViews) — see DESIGN.md §7 ("Performance
# architecture"), §8, §10, §12 and §16.
BENCH_PATTERN := FPGrowth|Eclat|MineAuto|Fig3|Fig4|EvolveRun|EnsembleReplicates|SpectrumOfSets|IndexBuild|MineWarmIndex|MineColdSecondPoint|LiveAppend|MineWarmUnderWrites|MineLowSupport|MineTopViews|ServeHit

# The simulation benchmarks whose allocs/op are hard-gated in CI:
# allocation counts are deterministic, so this subset can fail the build
# even on noisy shared runners. MineWarmIndex rides along to keep the
# pooled warm-query path allocation-flat, MineWarmUnderWrites keeps
# the snapshot-then-mine path under a write stream from growing hidden
# per-query allocations, and MineLowSupport keeps a 15k–37k-set mine's
# canonical assembly, and its count-gated top=25 answer, at a handful
# of allocations. EclatReplicateSpectrum keeps the weighted Eclat mine
# of a replicate-shaped pool, off a reused builder, at two. ServeHit keeps a served cache
# hit (query parse, cache key, cached body) and a 304 revalidation
# from growing per-request allocations. The one-shot EclatReplicatePool
# and MineAutoReplicatePool mines draw pooled state and flap between
# 80 and 121 allocs, so they stay out.
ALLOC_GATE_PATTERN := EvolveRun|EnsembleReplicates|Fig4|MineWarmIndex|MineWarmUnderWrites|MineLowSupport|EclatReplicateSpectrum|ServeHit

.PHONY: check ci serve fmt vet build test race fuzz soak loadtest loadtest-cluster bench-smoke bench-baseline benchgate benchgate-allocs corpus-roundtrip paper-check servebench-test loc

check: fmt vet build race benchgate-allocs bench-smoke corpus-roundtrip soak servebench-test paper-check

# ci mirrors only the test job of .github/workflows/ci.yml: the race
# detector gates the server's cache/coalescing code. The workflow's
# other jobs run the loadtest-cluster, soak, fuzz, servebench-test,
# corpus-roundtrip, paper-check, benchgate and benchgate-allocs
# targets, and its loadtest job runs the server suites with -count=3.
ci: fmt vet build race

# serve runs the HTTP analytics service (see DESIGN.md §8); Ctrl-C
# drains connections and exits cleanly.
serve:
	$(GO) run ./cmd/cuisinevol serve -addr :8080

# fmt fails, listing the files, if any Go file is not gofmt-formatted.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race mirrors the CI test job: -shuffle=on randomizes test order per
# package so order dependencies surface (the failing seed is printed
# for reproduction with -shuffle=<seed>).
race:
	$(GO) test -race -shuffle=on ./...

# fuzz runs each native fuzz target for FUZZTIME. Go allows one -fuzz
# pattern per package invocation, so the targets run sequentially.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzNormalize -fuzztime $(FUZZTIME) ./internal/textnorm
	$(GO) test -run '^$$' -fuzz FuzzParseRecipe -fuzztime $(FUZZTIME) ./internal/ingest
	$(GO) test -run '^$$' -fuzz FuzzMineKernels -fuzztime $(FUZZTIME) ./internal/itemset
	$(GO) test -run '^$$' -fuzz FuzzPostingContainers -fuzztime $(FUZZTIME) ./internal/itemset
	$(GO) test -run '^$$' -fuzz FuzzSpectrumOfSets -fuzztime $(FUZZTIME) ./internal/itemset
	$(GO) test -run '^$$' -fuzz FuzzImportJSONL -fuzztime $(FUZZTIME) ./internal/corpusstore
	$(GO) test -run '^$$' -fuzz FuzzImportCSV -fuzztime $(FUZZTIME) ./internal/corpusstore
	$(GO) test -run '^$$' -fuzz FuzzParseRef -fuzztime $(FUZZTIME) ./internal/corpusstore
	$(GO) test -run '^$$' -fuzz FuzzOpenFSManifest -fuzztime $(FUZZTIME) ./internal/corpusstore
	$(GO) test -run '^$$' -fuzz FuzzReadSnapshot -fuzztime $(FUZZTIME) ./internal/peering

# soak escalates the metamorphic differential harness: each -count rerun
# shares the process, so the suites draw a fresh seed block per rerun
# (soakRuns in live_diff_test.go) — SOAK_COUNT=N explores N disjoint
# randomized op-stream universes, all under the race detector. Raise
# SOAK_COUNT for long soaks; CI runs the default.
SOAK_COUNT ?= 3
soak:
	$(GO) test -race -run 'TestLiveDifferentialOpStreams|TestLiveEpochIsolationRace' \
		-count $(SOAK_COUNT) ./internal/itemset

# loadtest exercises the overload/chaos harness (deadlines, shedding,
# coalescing under load) with the race detector on — the suite is fully
# event-driven, so -race adds coverage without adding flakiness.
loadtest:
	$(GO) test -race -count=1 ./internal/server/...

# loadtest-cluster runs only the multi-node invariant harness: three
# in-process nodes behind the consistent-hash ring, replaying
# deterministic workloads (including chaos and a kill/restart-from-
# snapshot) under the race detector, -count=3 so schedule-sensitive
# interleavings get several chances to go wrong.
loadtest-cluster:
	$(GO) test -race -count=3 -run 'TestCluster' ./internal/server/loadtest

# bench-smoke keeps `make check` fast (one iteration per benchmark) while
# still exercising every benchmarked pipeline end to end and the JSON
# conversion. Its output goes to the gitignored .bench_build/, never over
# the committed BENCH_fig_pipeline.json baseline, which only
# bench-baseline writes.
bench-smoke:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime 1x ./... \
		| $(GO) run ./cmd/benchjson > .bench_build/bench-smoke.json

# bench-baseline records the real numbers committed with a PR.
bench-baseline:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem ./... \
		| $(GO) run ./cmd/benchjson > BENCH_fig_pipeline.json

# benchgate reruns the benchmarks and fails when any regresses past
# BENCH_TOLERANCE against the committed baseline (ns/op or allocs/op).
# The fresh JSON is discarded — the committed baseline only moves via
# `make bench-baseline`. Advisory in CI (shared-runner noise); normative
# on quiet hardware.
BENCH_TOLERANCE ?= 0.15
benchgate:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem ./... \
		| $(GO) run ./cmd/benchjson -compare BENCH_fig_pipeline.json -tolerance $(BENCH_TOLERANCE) > /dev/null

# corpus-roundtrip proves the content-addressing contract end to end
# through the real CLI: import the fixture CSV into one store, export it
# as re-importable raw records, import those into a second independent
# store, and require byte-identical fingerprints. Any drift in the
# importer, the resolution pipeline, the raw exporter, or the
# fingerprint itself fails the diff.
RTDIR := $(or $(TMPDIR),/tmp)/cuisinevol-roundtrip
corpus-roundtrip:
	rm -rf '$(RTDIR)' && mkdir -p '$(RTDIR)'
	$(GO) run ./cmd/cuisinevol corpus import -dir '$(RTDIR)/a' -name fixture \
		-print-fingerprint internal/corpusstore/testdata/corpus_fixture.csv > '$(RTDIR)/fp1'
	$(GO) run ./cmd/cuisinevol corpus export -dir '$(RTDIR)/a' -raw \
		-out '$(RTDIR)/export.jsonl' fixture
	$(GO) run ./cmd/cuisinevol corpus import -dir '$(RTDIR)/b' -name fixture \
		-print-fingerprint '$(RTDIR)/export.jsonl' > '$(RTDIR)/fp2'
	diff '$(RTDIR)/fp1' '$(RTDIR)/fp2'
	@echo "corpus-roundtrip: fingerprint stable at $$(cat '$(RTDIR)/fp1')"

# paper-check reruns every paper figure and table at the default scale
# 1 and seed into a temporary directory and requires each file to match
# the committed results/ byte for byte, in both directions, skipping
# the golden_*.json files the tests write. It fails naming the first
# file that differs or exists on one side only. A change that alters
# results/ regenerates them in the same commit.
PAPERDIR := $(or $(TMPDIR),/tmp)/cuisinevol-paper-check
paper-check:
	rm -rf '$(PAPERDIR)' && mkdir -p '$(PAPERDIR)'
	$(GO) run ./cmd/cuisinevol all -outdir '$(PAPERDIR)' > /dev/null
	@for f in results/* '$(PAPERDIR)'/*; do \
		name=$$(basename "$$f"); \
		case "$$name" in golden_*.json) continue ;; esac; \
		cmp -s "results/$$name" '$(PAPERDIR)'/"$$name" || \
			{ echo "paper-check: $$name differs between results/ and a fresh run"; exit 1; }; \
	done
	@echo "paper-check: all $$(ls '$(PAPERDIR)' | wc -l) files match results/"

# benchgate-allocs gates only the ALLOC_GATE_PATTERN benchmarks, whose
# allocs/op are deterministic, and only on allocs/op: >ALLOC_TOLERANCE
# growth against the committed baseline fails. This is the
# non-advisory CI gate.
ALLOC_TOLERANCE ?= 0.25
benchgate-allocs:
	$(GO) test -run '^$$' -bench '$(ALLOC_GATE_PATTERN)' -benchmem -benchtime 1x ./... \
		| $(GO) run ./cmd/benchjson -compare BENCH_fig_pipeline.json \
			-alloc-gate '$(ALLOC_GATE_PATTERN)' -alloc-tolerance $(ALLOC_TOLERANCE) > /dev/null

# servebench-test runs the serving benchmark's self-test. servebench/ is
# a separate module (it replaces cuisinevol with ../), so the root
# `go test ./...` never enters it: this target is what catches an
# internal API change that breaks the benchmark.
servebench-test:
	cd servebench && $(GO) test ./...

# loc prints the non-test Go line count, without servebench/ (its own
# module) and examples/: the number ROADMAP's line-count goals use.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './servebench/*' ! -path './examples/*' -print0 | xargs -0 cat | wc -l
