# Standard development targets. Everything is stdlib Go; no external tools.

GO ?= go

.PHONY: all build test test-verbose race serve-race fed-race replica-race vet fmt-check bench bench-check bench-golden bench-compare doclint experiments results examples cover clean fuzz-smoke check serve-smoke crash-smoke quorum-smoke

all: build vet test

# The full pre-merge gate: compile, vet, gofmt, doc-comment lint, unit
# tests, the benchmark driver's own vet and tests (see bench-check), the
# 42 full-size study fingerprints (see bench-golden), race detector, a
# short smoke run of every fuzz target (see fuzz-smoke), the
# SIGKILL/recover durability drill (see crash-smoke), and the
# follower-kill quorum drill (see quorum-smoke).
check: build vet fmt-check doclint test bench-check bench-golden race fuzz-smoke crash-smoke quorum-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every .go file in the tree, benchmark/ included, must be gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# benchmark/ is a module of its own, so `go build ./... && go test ./...`
# at the root neither compiles nor tests it — yet it imports ten internal
# packages and breaks silently when one of their APIs moves. About 7 s.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The paper's 42-cell grid at full size through the benchmark's study
# workload: exits non-zero when any fingerprint in benchmark/golden.json
# moves (the cell's jobs count as failed ops). Traced, because a one-second
# untraced run is three rounds and the harness refuses to report a p95 from
# the six samples they leave beyond it; a traced run reports no end-to-end
# metric and is not asked for one. About 15 s after the first build.
bench-golden:
	bash benchmark/run.sh --workload study --seed 1 --seconds 1 --trace 1 > /dev/null

# Race-detector pass over the whole tree; internal/runner introduced the
# repo's first real concurrency, so run this before merging scheduler or
# runner changes.
race:
	$(GO) test -race ./...

# Focused race-detector pass over the serving layer and the event core —
# the packages the lock-free read path touches. -count=2 reruns the stress
# tests with fresh schedules; CI runs this as its own job.
serve-race:
	$(GO) test -race -count=2 ./internal/serve ./internal/sim

# Focused race-detector pass over the federation layer: scatter-gather
# reads, routing, and the merged snapshot hammered while every shard
# replays at full speed. -count=2 reruns with fresh schedules; CI runs
# this as its own job (fed-race).
fed-race:
	$(GO) test -race -count=2 ./internal/fed

# Focused race-detector pass over the replication layer: the live-follow
# stress test tails a journal (and the WAL-shipping endpoint) while the
# leader's scheduler goroutine appends at full tilt, plus the lock-free
# tailer's own concurrency tests in internal/wal. -count=2 reruns with
# fresh schedules; CI runs this as its own job (replica-race).
replica-race:
	$(GO) test -race -count=2 ./internal/replica ./internal/wal

# Full test log, as recorded in test_output.txt.
test-verbose:
	$(GO) test -v ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The one performance comparison (PERFORMANCE.md §2): the working tree against
# REF on every workload of BENCHMARK.json, PAIRS alternating parent/change
# pairs on seeds 1 and 2, every run kept as a JSON line under
# .bench_build/compare/, one verdict per workload and end-to-end metric, and a
# non-zero exit when any of them reads worse. REF's files are unpacked under
# .bench_build/ and removed again on every exit path. Ten pairs take 17–25
# minutes, so this is not part of `make check`.
PAIRS ?= 10

bench-compare:
	@test -n "$(REF)" || { echo "usage: make bench-compare REF=<rev> [PAIRS=10]"; exit 2; }
	$(GO) run ./cmd/benchdiff -ref $(REF) -pairs $(PAIRS)

# Short fuzzing pass over every fuzz target. Each target gets FUZZTIME of
# coverage-guided input generation on top of its checked-in seed corpus;
# -run='^$$' skips the unit tests so only the fuzzers execute. Go allows one
# -fuzz target per invocation, hence one line per target.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test ./internal/swf -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/swf -run='^$$' -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sched -run='^$$' -fuzz=FuzzProfileOps -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sched -run='^$$' -fuzz=FuzzProfileEquivalence -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sched -run='^$$' -fuzz=FuzzSchedulerRun -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sched -run='^$$' -fuzz=FuzzLaunchIncremental -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sched -run='^$$' -fuzz=FuzzForecastHints -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sched -run='^$$' -fuzz=FuzzSortQueue -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sched -run='^$$' -fuzz=FuzzResvTable -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/audit -run='^$$' -fuzz=FuzzAuditIncremental -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal -run='^$$' -fuzz=FuzzRecordCodec -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzJobIndex -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzViewCodec -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/fed -run='^$$' -fuzz=FuzzShardRouter -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/fed -run='^$$' -fuzz=FuzzReadBalancer -fuzztime=$(FUZZTIME)

# Every package must carry a doc comment; see scripts/doclint.sh.
doclint:
	sh scripts/doclint.sh

# End-to-end smoke test of the online scheduling service: boot schedd on
# a random port, push three jobs through schedctl, assert completion and
# a clean SIGTERM drain.
serve-smoke:
	sh scripts/serve-smoke.sh

# Durability drill: SIGKILL a journaling schedd mid-write-burst five times
# on one shared journal, then SIGKILL one member of a four-shard federation
# per cycle while its siblings keep serving; every cycle must recover
# byte-identically (state hash pinned by an independent shadow replay) with
# no acknowledged write lost.
crash-smoke:
	sh scripts/crash-smoke.sh

# Quorum drill: a two-shard federation with -ack-quorum 1 and two
# followers per shard; one follower is SIGKILLed mid-burst per cycle.
# Writes must keep acknowledging through the survivor, no acknowledged
# write may be lost (per-shard shadow replay), and the quorum counters
# must show zero degraded or rejected writes.
quorum-smoke:
	sh scripts/quorum-smoke.sh

# Regenerate every paper table/figure and the extension studies.
experiments:
	$(GO) run ./cmd/experiments -run all

# One file per artifact under results/.
results:
	$(GO) run ./cmd/experiments -run all -out results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/policy_comparison
	$(GO) run ./examples/estimate_sensitivity
	$(GO) run ./examples/capacity_planning
	$(GO) run ./examples/trace_study
	$(GO) run ./examples/starvation

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt
	rm -rf results
