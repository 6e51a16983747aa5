# Tier-1 verification and the perf trajectory.
#
#   make verify     — build, vet, lint (repllint + staticcheck +
#                     govulncheck where installed), the check that every
#                     test the Makefile names exists, full test suite
#                     under the race detector (covering the pooled
#                     wire-buffer paths; the
#                     schedule-sensitive broadcast package and the
#                     auditor's tests ten times over), then the
#                     simulator's record BENCH_sim.json (bench-sim), the
#                     workload × fault matrix emitting BENCH_matrix.json
#                     (smoke grid;
#                     MATRIX_FULL=1 runs the exhaustive grid), a short
#                     fuzz smoke over the decoders in FUZZ_TARGETS, the
#                     README package-map completeness
#                     check, and a smoke run of the real-clock benchmark
#                     under bench/.
#   make bench-sim  — every experiment's tables at full scale (the paper
#                     tables E1–E14, then E15 batch throughput, E16
#                     checkpointing, E17 crash recovery, E18 hot path and
#                     E19 shard scaling), as one deterministic JSON
#                     document, BENCH_sim.json: the virtual-time figures
#                     the README quotes (about 80 s on a 2-core host).
#   make lint       — repllint (the in-tree go/analysis suite under
#                     internal/analysis: lockcheck and trustcheck),
#                     then staticcheck and
#                     govulncheck when present on PATH (CI installs
#                     them; locally they skip with a note).
#   make bench-smoke — vet and short tests of the bench/ module (its own
#                     go.mod, so `./...` from the root does not reach
#                     it), then two seconds each of read-point, read-scan
#                     and mixed and three of write-waves over loopback
#                     TCP, each of which must end correct with no failed
#                     operation.
#   make check-records — regenerate BENCH_sim.json and BENCH_matrix.json
#                     into a temporary directory and compare each with
#                     the committed file: any difference is printed and
#                     fails the target. Nothing in the tree is written.
#   make matrix-full-diff BASE=<ref> — run the full matrix grid at the
#                     git ref BASE (extracted into a temporary directory)
#                     and at the working tree, and print every cell whose
#                     figures differ; fails only when a cell fails its
#                     ground-truth check on either side.
#   make loc        — non-test lines per internal/ package (the figure
#                     CHANGES.md and ROADMAP.md quote).
#   make profile    — run the E18 hot-path experiment under the CPU and
#                     heap profilers; inspect with `go tool pprof`.
#   make profile-read — run BenchmarkTCPRead (internal/e2e: one client's
#                     closed loop of point reads over loopback TCP against
#                     a slave, the auditor and a master; it reports
#                     wire-B/read) under the CPU profiler, into
#                     cpu-read.prof; inspect with `go tool pprof`.

GO ?= go
FUZZTIME ?= 10s

.PHONY: verify build vet lint check-tests race bench-sim bench-matrix check-records matrix-full-diff bench-smoke fuzz-smoke check-readme bench profile profile-read loc

verify: build vet lint check-tests race bench-sim bench-matrix fuzz-smoke check-readme bench-smoke

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
# slave test whose concurrent announces and the fetches they start share
# one replica, its sync guard, its verified-stamp cache and the pooled
# writers the batch digest is hashed through, the one where Bootstrap, a
# sync and announced batches race for one replica, the one whose announce
# past the replica is answered while the fetch it starts runs on, the one
# whose readers share the signed-pledge memo while stamps and batches
# arrive, the one whose readers must see each batch and its stamp whole
# (no pledge an audit would convict, no read refused as stale), the
# client test whose writers,
# readers and re-setups share one shard table and its groups, the one
# whose readers share one client's held stamp while keep-alives and
# batches replace the slave's stamp under them, the master test whose
# announces, acks, assignments, exclusions, readmissions and adoptions share
# one slave table that exclusion shrinks, the auditor's tests,
# whose handlers settle pledges against views of the content while
# batches are delivered and the apply loop applies them,
# clones them and settles the pledges that waited for them, the client's
# vouch tests, whose auditor answers pledges on arrival while its apply
# loop runs, and the TCP transport's tests, whose connection workers,
# reused call slots and single-flight dials are all shared between
# goroutines that only a lucky schedule brings together.
# RACE_RERUNS lists them as package:-run pattern, one rerun each.
RACE_RERUNS := \
	internal/rpc:TestTCP \
	'internal/core:TestSlaveUpdateBatchConcurrent|TestSlaveStateTransferConcurrent|TestSlaveAnnounceAnsweredAtOnce|TestSlavePledgeMemoConcurrent|TestSlaveReadsAtomicWithBatches|TestClientConcurrentRouting|TestClientHeldStampConcurrent|TestMasterSlaveTableConcurrent' \
	'internal/core:TestAuditor|TestClientVouch'

race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 ./internal/broadcast/
	@for t in $(RACE_RERUNS); do \
		echo "$(GO) test -race -count=10 -run '$${t#*:}' ./$${t%:*}/"; \
		$(GO) test -race -count=10 -run "$${t#*:}" ./$${t%:*}/ || exit 1; \
	done

# The simulator's record: virtual time, so one seed always writes the
# same bytes, and a table that moves shows in the file's diff.
bench-sim:
	$(GO) run ./cmd/replsim -all -json > BENCH_sim.json
	@echo "wrote BENCH_sim.json"

# The workload × fault matrix: every cell must end converged with zero
# lost/duplicated writes or the run (and so `make verify`) fails. The
# default smoke grid is CI-sized; MATRIX_FULL=1 runs the exhaustive
# cross product.
bench-matrix:
	$(GO) run ./cmd/replsim -matrix -matrixout BENCH_matrix.json
	@echo "wrote BENCH_matrix.json"

# Both records, regenerated where the tree does not see them and compared
# byte for byte with the committed files: a change that means to leave
# every virtual-time figure alone proves it here.
check-records:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/replsim -all -json > "$$tmp/BENCH_sim.json" && \
	$(GO) run ./cmd/replsim -matrix -matrixout "$$tmp/BENCH_matrix.json" > /dev/null && \
	status=0 && \
	for f in BENCH_sim.json BENCH_matrix.json; do \
		if cmp -s "$$f" "$$tmp/$$f"; then echo "check-records: $$f matches a fresh run"; \
		else echo "check-records: $$f differs from a fresh run:"; diff "$$f" "$$tmp/$$f"; status=1; fi; \
	done; \
	exit $$status

# The nightly full grid has no committed record, so a change that moves
# one of its cells shows only here: the grid at BASE and at the working
# tree, compared cell by cell (replsim -matrixdiff). A run whose cells
# fail still writes its report; the diff then names those cells and fails.
matrix-full-diff:
	@test -n "$(BASE)" || { echo "usage: make matrix-full-diff BASE=<git ref>"; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/base" && git archive "$(BASE)" | tar -x -C "$$tmp/base" && \
	echo "matrix-full-diff: full grid at $(BASE)" && \
	(cd "$$tmp/base" && $(GO) run ./cmd/replsim -matrix -matrixfull -matrixout "$$tmp/base.json" > "$$tmp/base.log"; test -s "$$tmp/base.json") && \
	echo "matrix-full-diff: full grid at the working tree" && \
	($(GO) run ./cmd/replsim -matrix -matrixfull -matrixout "$$tmp/head.json" > "$$tmp/head.log"; test -s "$$tmp/head.json") && \
	$(GO) run ./cmd/replsim -matrixdiff "$$tmp/base.json" "$$tmp/head.json"

# The real-clock benchmark lives in its own module: vet and test it, then
# run the read path and the write path end to end, briefly. Each run
# prints its result as a final JSON line, which must report correct output
# and no failed operation.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...
	@for run in read-point:2 read-scan:2 write-waves:3 mixed:2; do \
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
	internal/core:FuzzBatchDigestInput \
	internal/core:FuzzDecodePledge \
	internal/core:FuzzAuditorHandlePledge \
	internal/core:FuzzMasterHandleReport \
	internal/core:FuzzDecodeReadReply \
	internal/core:FuzzSlaveHandleRead \
	internal/core:FuzzSlaveHandleKeepAlive \
	internal/core:FuzzDecodeStateTransfer \
	internal/core:FuzzDecodeBatchMessage \
	internal/core:FuzzMasterDeliver \
	internal/core:FuzzWALRecord \
	internal/broadcast:FuzzMemberHandle \
	internal/dirsrv:FuzzDecodeShardMap \
	internal/store:FuzzNumericValue \
	internal/store:FuzzStoreClone \
	internal/store:FuzzDecodeSnapshot \
	internal/query:FuzzResultDecoders

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) ./$${t%:*}/ || exit 1; \
	done

# `go test -fuzz` and `-run` with a pattern that matches no test exit 0, so
# a test renamed or deleted under a name used here would drop out of the
# fuzz smoke or the race reruns without a sound. Every FUZZ_TARGETS entry
# must name a fuzz target exactly, and every alternative of a RACE_RERUNS
# pattern must match a test, in the listing `go test -list` prints.
check-tests:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test -list . ./$${t%:*}/ | grep -qx "$${t#*:}" || \
			{ echo "check-tests: FUZZ_TARGETS: no fuzz target $${t#*:} in $${t%:*}"; exit 1; }; \
	done
	@for t in $(RACE_RERUNS); do \
		for alt in $$(echo "$${t#*:}" | tr '|' ' '); do \
			$(GO) test -list . ./$${t%:*}/ | grep -q -- "$$alt" || \
				{ echo "check-tests: RACE_RERUNS: -run alternative $$alt matches no test in $${t%:*}"; exit 1; }; \
		done; \
	done
	@echo "check-tests: every fuzz target and race rerun the Makefile names exists"

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

# The read path over real sockets, profiled: go test leaves the test
# binary (e2e.test) beside the profile for pprof to resolve symbols.
profile-read:
	$(GO) test -run '^$$' -bench '^BenchmarkTCPRead$$' -benchtime 10s -cpuprofile cpu-read.prof ./internal/e2e/
	@echo "wrote cpu-read.prof; inspect with: $(GO) tool pprof e2e.test cpu-read.prof"
