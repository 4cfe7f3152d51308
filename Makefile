# The repository's verification gate. `make check` is exactly what CI runs
# (.github/workflows/ci.yml), so a green local check means a green build.

GO ?= go

# Packages with concurrency-bearing code or parallel test harnesses; they
# run under the race detector on every check. The root package carries the
# soak tests, which -short skips; `make race-full` runs them raced too.
# internal/analysis is here for its parallel per-package scheduler and the
# shared cross-package fact store.
RACE_PKGS := ./internal/radio/... ./internal/experiment/... ./internal/graph/... \
	./internal/fault/... ./internal/analysis/... ./internal/service/... .

# Where `make bench-smoke` writes its BENCH_*.json record; CI uploads the
# same directory as a build artifact.
BENCH_DIR ?= bench-out

# Simulator micro-benchmark comparison: `make bench-compare` reruns the
# internal/radio benchmarks and diffs them against the committed baseline
# with the stdlib-only delta printer (cmd/benchdelta — no benchstat dep).
# Refresh the baseline with `make bench-save` after a deliberate perf change
# and commit the new file alongside bench/BENCH_simcore.json.
# BENCHDELTA_FLAGS turns the report into a gate: CI's bench-regression
# workflow passes "-fail-over 10 -metric ns/step" so a >10% hot-loop
# slowdown fails the job.
BENCH_BASELINE ?= bench/simcore-baseline.txt
BENCH_COUNT ?= 5
BENCHDELTA_FLAGS ?=

# Coverage profile and the per-package floors CI enforces (cmd/covercheck).
# internal/obs is the observability layer every engine counter flows
# through; it stays thoroughly tested or the ledger cannot be trusted.
# internal/bitset and internal/graph carry the bit-parallel tally kernel's
# word ops and the cached bitmap adjacency it reads — a silently wrong bit
# there corrupts every dense trial, so both hold the same floor.
COVER_PROFILE ?= cover.out
# internal/service is the radiosd serving layer: admission control, the
# compiled-graph cache, and graceful drain are all concurrency edges whose
# failure modes (dropped jobs, poisoned cache, nondeterministic responses)
# only tests catch, so it holds the same floor.
COVER_FLOORS ?= adhocradio/internal/obs=85 adhocradio/internal/bitset=85 \
	adhocradio/internal/graph=85 adhocradio/internal/service=85

.PHONY: check build test vet radiolint lint-baseline race race-full fmt-check \
	bench-smoke bench-compare bench-save bench-kernel fuzz-smoke cover \
	service-smoke apisurface

check: build vet fmt-check radiolint test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

radiolint:
	$(GO) run ./cmd/radiolint ./...

# Regenerate the known-findings ledger (lint/baseline.json) from the
# current tree. Never edit the file by hand; run this, eyeball the diff,
# and justify any growth in review like you would a //radiolint:ignore.
lint-baseline:
	$(GO) run ./cmd/radiolint -write-baseline ./...

race:
	$(GO) test -race -short $(RACE_PKGS)

race-full:
	$(GO) test -race $(RACE_PKGS)

# A quick-scale end-to-end run of the whole experiment registry: parallel
# across all cores, shape checks enforced (-verify exits non-zero on a
# qualitative-claim regression), machine-readable record left in BENCH_DIR.
# A second, sequential run goes to BENCH_DIR/seq, and benchdiff requires
# its canonical record to be byte-identical to the parallel one.
#
# The benchmark capture deliberately avoids `cmd | tee file`: in POSIX sh a
# pipeline's status is the LAST command's, so tee used to swallow go test
# failures and the targets went green on broken benchmarks. Redirect first,
# then cat — the file is still captured for the CI artifact, failures still
# print their output, and the exit status is go test's.
bench-smoke:
	@mkdir -p $(BENCH_DIR)
	$(GO) run ./cmd/radiobench -quick -parallel 0 -verify -json $(BENCH_DIR)
	$(GO) run ./cmd/radiobench -quick -parallel 1 -verify -json $(BENCH_DIR)/seq
	$(GO) run ./cmd/benchdiff $(BENCH_DIR)/BENCH_quick_seed1.json \
		$(BENCH_DIR)/seq/BENCH_quick_seed1.json
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/radio/... \
		> $(BENCH_DIR)/microbench-smoke.txt 2>&1 \
		|| { cat $(BENCH_DIR)/microbench-smoke.txt; exit 1; }
	@cat $(BENCH_DIR)/microbench-smoke.txt

bench-compare:
	@mkdir -p $(BENCH_DIR)
	$(GO) test -run=NONE -bench=. -count=$(BENCH_COUNT) ./internal/radio/ \
		> $(BENCH_DIR)/simcore-current.txt 2>&1 \
		|| { cat $(BENCH_DIR)/simcore-current.txt; exit 1; }
	@cat $(BENCH_DIR)/simcore-current.txt
	$(GO) run ./cmd/benchdelta $(BENCHDELTA_FLAGS) $(BENCH_BASELINE) $(BENCH_DIR)/simcore-current.txt

# The committed baseline stays stderr-free (stderr goes to the console), so
# a stray build warning can never pollute the comparison reference.
bench-save:
	@mkdir -p $(dir $(BENCH_BASELINE))
	$(GO) test -run=NONE -bench=. -count=$(BENCH_COUNT) ./internal/radio/ \
		> $(BENCH_BASELINE) \
		|| { cat $(BENCH_BASELINE); exit 1; }
	@cat $(BENCH_BASELINE)

# The isolated tally-kernel pair plus the degree sweep behind the
# bitsetArcFactor dispatch threshold (engine.go): run this when touching the
# tally paths or retuning the crossover, and update the DESIGN.md table from
# its output. -benchmem keeps the 0 allocs/op claim honest.
bench-kernel:
	$(GO) test -run=NONE -bench='BenchmarkTally' -benchmem ./internal/radio/

# Whole-repo coverage with per-package floors. The profile is left behind
# for the CI artifact; covercheck exits non-zero when a floor is missed.
cover:
	$(GO) test -coverprofile=$(COVER_PROFILE) ./...
	$(GO) run ./cmd/covercheck -profile $(COVER_PROFILE) $(COVER_FLOORS)

# A short differential-fuzzing pass over the optimized engine vs the naive
# reference, including fault-injected inputs. The committed corpus under
# internal/radio/testdata/fuzz/ always replays as part of `make test`; this
# target additionally mutates for a few seconds to probe fresh inputs. The
# second run does the same for the repository's real protocols (KP, BGI and
# the deterministic ones) on the dense graphs the bit-parallel tally kernel
# serves and on sparse graphs, where wake hints skip most Act calls, with
# and without node-fault plans. The third mutates radiolint's suppression
# parser, which faces arbitrary source text and must never mis-anchor a
# suppression or crash. The fourth
# mutates the topology specs radiosd decodes from requests: Normalize must
# never panic, must be idempotent, and must agree with Canonical. The fifth
# mutates arc lists fed to graph.Builder and checks every built row against
# a naive model, duplicates, self-loops and out-of-range endpoints included.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzRunVsReference -fuzztime=10s ./internal/radio
	$(GO) test -run=NONE -fuzz=FuzzProtocolsVsReference -fuzztime=10s ./internal/radio/radiotest
	$(GO) test -run=NONE -fuzz=FuzzParseSuppressions -fuzztime=10s ./internal/analysis
	$(GO) test -run=NONE -fuzz=FuzzSpecNormalize -fuzztime=10s ./internal/graph
	$(GO) test -run=NONE -fuzz=FuzzBuilder -fuzztime=10s ./internal/graph

# End-to-end gate for the radiosd serving layer, run under the race
# detector: a real daemon child process, concurrent clients mixing cached
# and uncached topologies, byte-identical responses for identical requests,
# a /metrics scrape, and a SIGTERM drain that leaves zero accepted jobs
# behind (the child exits non-zero otherwise).
service-smoke:
	$(GO) test -race -v -run TestServiceSmoke ./cmd/radiosd/

# Regenerate the exported-API golden (lint/apisurface.txt) after a
# deliberate public API change; TestAPISurfaceGolden (part of `make test`)
# fails until the committed golden matches the source again. Review the
# diff like you would any API change: CONTRIBUTING.md requires new entry
# points to take a context or offer a *Context variant.
apisurface:
	$(GO) test -run TestAPISurfaceGolden . -args -update-apisurface

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
