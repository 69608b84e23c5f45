# Build and verification targets. `make check` is the full gate:
# everything CI runs, including the race detector over the concurrent
# packages (the runner's worker pool and the simulation scheduler).

GO ?= go

.PHONY: all build test race vet fmt check cover bench fuzz scenario-goldens cluster-smoke wal-smoke stream-smoke profile loc clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check every internal package. The scheduler's coroutine switches
# and the runner's worker pool are the concurrency hot spots, but the
# determinism tests in internal/experiments only mean something if they
# also hold under the race detector, so the whole tree runs. The
# experiments package alone takes ~10 minutes under -race on a 2-core
# host, past go test's default per-package timeout.
race:
	$(GO) test -race -timeout 30m ./internal/...

vet:
	$(GO) vet ./...

# Formatting gate: fails, naming the files, when gofmt would rewrite any.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# The scenario-golden gate: render every preset through the declarative
# spec path and diff byte-for-byte against the committed golden files.
# This is the refactor-safety net — any change to the spec interpreter,
# the runner's cache keys, or the renderers that alters published
# output fails here first.
scenario-goldens:
	$(GO) test -run TestGoldenOutput -count=1 ./internal/experiments

check: build fmt vet race test scenario-goldens

# The cluster gate: one coordinator plus two in-process workers run a
# fig8-style sweep through the async job API. Passing means the
# distributed report is byte-identical to a serial render, every task
# settled done, and at least one blob crossed peers (a capture computed
# on one worker, replayed from the shared store by the other — asserted
# via the peer-fetch metrics).
cluster-smoke:
	$(GO) test -run 'TestClusterEndToEnd|TestWorkerDrainReleases' -count=1 -v ./internal/cluster

# The durability gate: the crash-point matrix. A sweep job's journal is
# killed mid-flight at several append counts (submission-only durable,
# task graph + one claim durable, deep mid-sweep), a successor boots
# over the same WAL dir, and every recovered run must finish with a
# report byte-identical to a serial render. The wal package's own
# fault-injection tests (every-prefix recovery, short writes, torn
# tails) ride along.
wal-smoke:
	$(GO) test -run 'TestCrashRestartEndToEnd|TestJournal' -count=1 -v ./internal/cluster
	$(GO) test -count=1 ./internal/wal

# The stream gate: multi-phase query streams must be equivalent to
# direct execution everywhere. Runs the core equivalence suite (direct
# vs recorded vs per-segment replay, including live-recorded update
# phases and the legacy warm-pair lowering), the experiments
# one-job-per-stream equivalence at 1 and 4 workers, the
# capture-per-stream trace-store round trip (streams and fig12's warm
# pairs), the no-store run that must record nothing, progress keys
# matching what a render settles, and the mixedstreams golden at
# -jobs 1 vs parallel. The scheduler's coroutine driver rides along:
# live and replayed interleavings, lock-op coroutine reuse and
# leak-free panics, 20 times each under the race detector. Blocking in
# CI.
stream-smoke:
	$(GO) test -race -count=20 -run 'TestDeterminism|TestInterleavingIsTimeOrdered|TestRunReplayMatchesRun|TestRunPanicLeaksNoGoroutine|TestRunReplayOpPanicLeaksNoGoroutine|TestRunReplayOpsReuseProcCoroutine' ./internal/sched
	$(GO) test -count=1 -run 'TestStreamReplayMatchesExecution|TestStreamReplaySweeps|TestLegacyPhasesEquivalence|TestReplayStreamUnsegmented|TestRunStreamAnswers' -v ./internal/core
	$(GO) test -count=1 -run 'TestStreamSpecMatchesDirectExecution|TestStreamTraceStoreServesPhases|TestFig12TraceStoreServesPairs|TestStreamWithoutStoreRecordsNothing|TestProgressKeysMatchRender|TestGoldenOutput' ./internal/experiments

# Profile a named preset (default fig6) under the CPU and heap
# profilers. The pipeline stages run under pprof labels ("stage" =
# build | capture | live | decode | replay | marshal: database
# generation, record-pure capture, live update phases, trace decode,
# replay, blob encoding), so host time is attributable per stage:
#   go tool pprof -tagfocus stage=replay cpu.pprof
PROFILE_EXP ?= fig6
PROFILE_SCALE ?= 0.01
profile:
	$(GO) run ./cmd/dssmem -exp $(PROFILE_EXP) -scale $(PROFILE_SCALE) \
		-cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof (try: go tool pprof -tags cpu.pprof)"

# Fuzz the input decoders: the scenario decoder (decode -> validate ->
# canonicalize -> re-decode must round-trip or fail cleanly with a
# field-path error), the trace decoder (per-event, batched, and
# streamed decode must accept the same inputs, yield the same events,
# and never panic or silently short-replay a damaged blob), and the WAL
# segment scanner (opening an arbitrary byte soup must never panic, and
# whatever it recovers must re-encode to a well-formed log). CI runs a
# short smoke; crank FUZZTIME locally for a real campaign.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run NONE -fuzz FuzzScenarioDecode -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run NONE -fuzz FuzzTraceChunkDecode -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run NONE -fuzz FuzzWALRecord -fuzztime $(FUZZTIME) ./internal/wal

# Coverage gate for the two packages every other layer leans on:
# internal/metrics is the one package every layer reports through, and
# internal/trace holds the one decoder that takes bytes from outside the
# process (trace-store blobs, peer fetches, -replay files). Fails when
# either package's statement coverage drops below 85%.
COVER_MIN ?= 85
COVER_PKGS = internal/metrics internal/trace
cover:
	@for pkg in $(COVER_PKGS); do \
		$(GO) test -coverprofile=cover.out ./$$pkg || exit 1; \
		$(GO) tool cover -func=cover.out | awk -v min=$(COVER_MIN) -v pkg=$$pkg \
			'/^total:/ { sub(/%/, "", $$3); printf "%s coverage: %s%% (floor %s%%)\n", pkg, $$3, min; \
			if ($$3 + 0 < min) { exit 1 } }' || exit 1; \
	done
	@rm -f cover.out

# The benchmark (bench/README.md): builds the binaries, runs the four
# BENCHMARK.json workloads with their per-layer probes, and exits 1 on
# any report-digest or exact-count mismatch against bench/expected.json.
# Timings are printed, not gated — wall-clock from another host cannot
# gate. The internal/machine and internal/sched micro-benchmarks stay
# available through `go test -bench`.
bench:
	bash bench/run.sh

# The ROADMAP's size measure: non-test Go lines under internal/ and
# cmd/ (target <= 19.5k).
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

clean:
	$(GO) clean ./...
	rm -rf .bench_build cover.out cpu.pprof mem.pprof
