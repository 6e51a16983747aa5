# Tier-1 verification and the perf trajectory.
#
#   make verify     — build, vet, lint (repllint + staticcheck +
#                     govulncheck where installed), full test suite
#                     under the race detector (covering the pooled
#                     wire-buffer and merkle-scratch paths; the
#                     schedule-sensitive broadcast package and the
#                     auditor's tests ten times over), then the
#                     E15 batch-throughput, E16 checkpointing, E17
#                     crash-recovery, E18 hot-path, and E19 shard-scaling
#                     benchmarks emitting BENCH_e15.json … BENCH_e19.json (the
#                     perf trajectory record), the workload × fault
#                     matrix emitting BENCH_matrix.json (smoke grid;
#                     MATRIX_FULL=1 runs the exhaustive grid), a short
#                     fuzz smoke over the decoders in FUZZ_TARGETS, the
#                     README package-map completeness
#                     check, and a smoke run of the real-clock benchmark
#                     under bench/.
#   make lint       — repllint (the in-tree go/analysis suite under
#                     internal/analysis: poolcheck, lockcheck,
#                     trustcheck, timercheck), then staticcheck and
#                     govulncheck when present on PATH (CI installs
#                     them; locally they skip with a note).
#   make bench-smoke — vet and short tests of the bench/ module (its own
#                     go.mod, so `./...` from the root does not reach
#                     it), then two seconds of the read-point workload
#                     and three of write-waves over loopback TCP, each
#                     of which must end correct with no failed
#                     operation.
#   make loc        — non-test lines per internal/ package (the figure
#                     CHANGES.md and ROADMAP.md quote).
#   make profile    — run the E18 hot-path experiment under the CPU and
#                     heap profilers; inspect with `go tool pprof`.

GO ?= go
FUZZTIME ?= 10s

.PHONY: verify build vet lint race bench-e15 bench-e16 bench-e17 bench-e18 bench-e19 bench-matrix bench-smoke fuzz-smoke check-readme bench profile loc

verify: build vet lint race bench-e15 bench-e16 bench-e17 bench-e18 bench-e19 bench-matrix fuzz-smoke check-readme bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/repllint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (CI runs it)"; \
	fi

# The commit round fans out a task per peer and hands delivery to a
# drainer task, so what its tests prove depends on the schedule they
# happened to get: the broadcast package runs ten more times. So does the
# slave test whose concurrent s.updatebatch handlers share one merkle
# scratch, the one where Bootstrap, a sync and pushed batches race for one
# replica, the one whose readers share the signed-pledge memo while stamps
# and batches arrive, the one whose readers must see each batch and its
# stamp whole (no pledge an audit would convict, no read refused as stale),
# the auditor's tests, whose handlers queue pledges that alias their
# frames for the audit worker, and the TCP transport's tests, whose
# connection workers, reused call slots and single-flight dials are all
# shared between goroutines that only a lucky schedule brings together.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 ./internal/broadcast/
	$(GO) test -race -count=10 -run TestTCP ./internal/rpc/
	$(GO) test -race -count=10 -run 'TestSlaveUpdateBatchConcurrent|TestSlaveStateTransferConcurrent|TestSlavePledgeMemoConcurrent|TestSlaveReadsAtomicWithBatches' ./internal/core/
	$(GO) test -race -count=10 -run TestAuditor ./internal/core/

bench-e15:
	$(GO) test -run '^$$' -bench BenchmarkE15 -benchtime 1x -json . > BENCH_e15.json
	@grep -c '"Action"' BENCH_e15.json >/dev/null && echo "wrote BENCH_e15.json"

bench-e16:
	$(GO) test -run '^$$' -bench BenchmarkE16 -benchtime 1x -json . > BENCH_e16.json
	@grep -c '"Action"' BENCH_e16.json >/dev/null && echo "wrote BENCH_e16.json"

bench-e17:
	$(GO) test -run '^$$' -bench BenchmarkE17 -benchtime 1x -json . > BENCH_e17.json
	@grep -c '"Action"' BENCH_e17.json >/dev/null && echo "wrote BENCH_e17.json"

bench-e18:
	$(GO) test -run '^$$' -bench BenchmarkE18 -benchtime 1x -json . > BENCH_e18.json
	@grep -c '"Action"' BENCH_e18.json >/dev/null && echo "wrote BENCH_e18.json"

bench-e19:
	$(GO) test -run '^$$' -bench BenchmarkE19 -benchtime 1x -json . > BENCH_e19.json
	@grep -c '"Action"' BENCH_e19.json >/dev/null && echo "wrote BENCH_e19.json"

# The workload × fault matrix: every cell must end converged with zero
# lost/duplicated writes or the run (and so `make verify`) fails. The
# default smoke grid is CI-sized; MATRIX_FULL=1 runs the exhaustive
# cross product.
bench-matrix:
	$(GO) run ./cmd/replsim -matrix -matrixout BENCH_matrix.json
	@echo "wrote BENCH_matrix.json"

# The real-clock benchmark lives in its own module: vet and test it, then
# run the read path and the write path end to end, briefly. Each run
# prints its result as a final JSON line, which must report correct output
# and no failed operation.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...
	@for run in read-point:2 write-waves:3; do \
		out=$$(bash bench/run.sh --workload $${run%:*} --seed 1 --seconds $${run#*:} --trace 0 | tail -n 1); \
		echo "$$out"; \
		case "$$out" in *'"correct":true'*'"failed":0'*) ;; *) echo "bench-smoke: $${run%:*} did not end correct with failed 0"; exit 1;; esac; \
	done

# Short native-fuzz runs over the untrusted-input decoders, one per entry
# of FUZZ_TARGETS (package:Target — a new decoder's fuzz target is one more
# word there). The checked-in corpora under testdata/fuzz/ replay in plain
# `go test`; this target additionally mutates for FUZZTIME per target.
# `go test` fuzzes one target per invocation, so they run one after the
# other, and the first failure fails the smoke.
FUZZ_TARGETS := \
	internal/wire:FuzzReaderFrame \
	internal/rpc:FuzzDecodeFrame \
	internal/merkle:FuzzDecodeProof \
	internal/core:FuzzDecodeWriteWave \
	internal/core:FuzzDecodeBatchUpdate \
	internal/core:FuzzDecodePledge \
	internal/core:FuzzDecodeStateTransfer \
	internal/store:FuzzNumericValue

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) ./$${t%:*}/ || exit 1; \
	done

# Non-test lines per internal/ package: the figure CHANGES.md and ROADMAP.md
# quote, so every PR counts the same way.
loc:
	@for d in internal/*/; do \
		printf '%6d  %s\n' "$$(ls $$d*.go | grep -v _test.go | xargs -r cat | wc -l)" "$${d%/}"; \
	done

# Every top-level internal/ package must be linked from the README's
# package map, so the map cannot silently rot as the codebase grows.
check-readme:
	@missing=0; \
	for d in internal/*/; do \
		p=$$(basename $$d); \
		grep -q "internal/$$p" README.md || { echo "README.md: missing link to internal/$$p"; missing=1; }; \
	done; \
	[ $$missing -eq 0 ] && echo "README.md package map complete" || exit 1

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

profile:
	$(GO) run ./cmd/replsim -exp E18 -scale 4 -cpuprofile cpu.prof -memprofile mem.prof
	@echo "wrote cpu.prof and mem.prof; inspect with: $(GO) tool pprof cpu.prof"
