# Build and verification targets. `make check` is the full gate:
# everything CI runs, including the race detector over every internal
# package (see race).

GO ?= go

.PHONY: all build test race vet fmt check cover bench fuzz scenario-goldens crash-smoke stream-smoke profile loc clean

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

# The durability gate: the crash matrix. A sweep job's daemon is
# killed at three points of progress read off the manager (spec stored
# only, the job running with at least one point stored, at least half
# the points stored), a successor boots over the spec, cache and trace
# dirs as they stood at the kill, and every re-queued job must finish
# under its id with a report byte-identical to a serial render, having
# simulated only the points the dirs lacked. The spec-store tests ride
# along: warm and concurrent resubmission (one id, one render, nothing
# written), names in the job id, a restart re-rendering a done job's
# report to the same bytes, and damaged spec files coming back as
# failed jobs. So does the wal package's own fault-injection suite
# (every-prefix recovery, short writes, failed syncs and rotations,
# torn tails); the package stays while bench/micro.go measures it.
crash-smoke:
	$(GO) test -run 'TestCrashRestartEndToEnd|TestSpecStore|TestSpecBytes' -count=1 -v ./internal/cluster
	$(GO) test -count=1 ./internal/wal

# The stream gate: multi-phase query streams must be equivalent to
# direct execution everywhere. Runs the core equivalence suite (direct
# vs recorded vs per-segment replay, including live-recorded update
# phases and the legacy warm-pair lowering), the experiments
# one-job-per-stream equivalence at 1 and 4 workers, the
# capture-per-stream trace-store round trip (streams and fig12's warm
# pairs), the no-store run that must record nothing, progress keys
# matching what a render settles (one job submitted and executed per
# key), the planner's shape, and the mixedstreams golden at -jobs 1 vs
# parallel. A sweep with no store keeps each recording once:
# its replay jobs read the capture's recording in place, several at a
# time at 4 workers, 5 times under the race detector, and the cached
# recording's chunks never return to the chunk pool; the disk tier
# (-cache-dir alone) still persists a capture's blob for a later
# process, and a damaged one falls back to execution. The scheduler's
# coroutine driver rides along:
# live and replayed interleavings, lock-op coroutine reuse, a page
# re-tagged mid-replay, and leak-free panics, 20 times each under the
# race detector. Blocking in
# CI.
stream-smoke:
	$(GO) test -race -count=20 -run 'TestDeterminism|TestInterleavingIsTimeOrdered|TestRunReplayMatchesRun|TestRunPanicLeaksNoGoroutine|TestRunReplayOpPanicLeaksNoGoroutine|TestRunReplayOpsReuseProcCoroutine|TestRunReplayRetagMidReplay' ./internal/sched
	$(GO) test -count=1 -run 'TestStreamReplayMatchesExecution|TestStreamReplaySweeps|TestLegacyPhasesEquivalence|TestReplayStreamUnsegmented|TestRunStreamAnswers' -v ./internal/core
	$(GO) test -count=1 -run 'TestStreamSpecMatchesDirectExecution|TestStreamTraceStoreServesPhases|TestFig12TraceStoreServesPairs|TestStreamWithoutStoreRecordsNothing|TestPlanScenario|TestProgressKeysMatchRender|TestGoldenOutput|TestDiskTierServesReplayAcrossProcesses|TestReplaySurvivesDamagedPersistedBlob' ./internal/experiments
	$(GO) test -race -count=5 -run 'TestSweepReplaysReadRecordingInPlace|TestCachedRecordingKeepsItsChunks' ./internal/experiments

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

# Coverage gate for the packages every other layer leans on:
# internal/metrics is the one package every layer reports through,
# internal/trace holds the one decoder that takes bytes from outside the
# process (trace-store blobs and -replay files), internal/machine and
# internal/sched are the timing model and the driver every simulated
# cycle comes from, internal/cluster is the daemon's job API and spec
# store, and internal/wal is measured by bench/micro.go. Fails when any
# package's statement coverage drops below 85%.
COVER_MIN ?= 85
COVER_PKGS = internal/metrics internal/trace internal/machine internal/sched internal/cluster internal/wal
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
