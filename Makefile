# Standard development targets. Everything is stdlib Go; no external tools.

GO ?= go

.PHONY: all build test test-verbose race serve-race fed-race replica-race vet fmt-check bench bench-smoke bench-check bench-golden bench-compare doclint experiments results results-check loc examples cover clean fuzz-smoke check serve-smoke crash-smoke

all: build vet test

# The full pre-merge gate: compile, vet, gofmt, doc-comment lint, unit
# tests, every benchmark once (see bench-smoke), the benchmark program's
# own vet and tests (see bench-check), the 42 full-size study
# fingerprints (see bench-golden), the committed results/ against a fresh
# run (see results-check), race detector, a
# short smoke run of every fuzz target (see fuzz-smoke), the SIGKILL
# crash drill over every topology (see crash-smoke), and the line budget
# (see loc).
check: build vet fmt-check doclint loc test bench-smoke bench-check bench-golden results-check race fuzz-smoke crash-smoke

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
# runner changes. -count=1 bypasses the test cache: a second run on an
# unchanged tree would otherwise replay cached passes and look for no
# race at all.
race:
	$(GO) test -race -count=1 ./...

# Focused race-detector pass over the serving layer and the event core —
# the packages the lock-free read path touches, and the instruments HTTP
# goroutines render while the scheduler loop updates them. -count=2 reruns
# the stress tests with fresh schedules; CI runs this as its own job.
serve-race:
	$(GO) test -race -count=2 ./internal/serve ./internal/sim ./internal/wal ./internal/instr

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

# Every Benchmark* function once, so a benchmark's own checks (the study
# grid's lost-jobs check, say) run in the gate. About 4 s of run time.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

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

# Short fuzzing pass over every fuzz target. `go test -list` finds the
# targets package by package, so a new fuzzer cannot be left out; the grep
# only spares it linking the packages whose tests declare none. Each target
# gets FUZZTIME of coverage-guided input generation on top of its checked-in
# seed corpus. -run='^$$' skips the unit tests so only the fuzzers execute.
# Go allows one -fuzz target per invocation, hence the loop.
# -fuzzminimizetime=1x: Go's default spends up to 60 s minimizing every
# newly interesting input, which from large seeds is the whole run; a
# failing input is still written to testdata/fuzz and still fails the run.
FUZZTIME ?= 10s

fuzz-smoke:
	@pkgs=$$(grep -rl --include='*_test.go' --exclude-dir=benchmark '^func Fuzz' . | xargs -n1 dirname | sort -u); \
	list=$$($(GO) test -list '^Fuzz' $$pkgs) || { echo "$$list"; exit 1; }; \
	echo "$$list" | awk '/^Fuzz/ { f[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }' | \
	while read -r pkg target; do \
		echo "$(GO) test $$pkg -run='^$$' -fuzz='^$$target\$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x"; \
		$(GO) test $$pkg -run='^$$' -fuzz="^$$target\$$" -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x || exit 1; \
	done

# Every package must carry a doc comment; see scripts/doclint.sh.
doclint:
	sh scripts/doclint.sh

# End-to-end smoke test of the online scheduling service: boot schedd on
# a random port, push three jobs through schedctl, assert completion and
# a clean SIGTERM drain.
serve-smoke:
	sh scripts/serve-smoke.sh

# The crash drill: five SIGKILL cycles on each row of schedload's topology
# table (cmd/schedload/drill.go) — a restarted leader, process-per-shard
# members, a self-promoting follower, and a follower of a quorum-acked
# front end. Every cycle must lose no acknowledged write (per-journal
# shadow replay), and every daemon that recovered or promoted must land on
# its shadow's state hash.
crash-smoke:
	sh scripts/crash-smoke.sh

# Regenerate every paper table/figure and the extension studies.
experiments:
	$(GO) run ./cmd/experiments -run all

# One file per artifact under results/, and one SVG chart per chartable
# table under results/figures/. Both directories are committed.
results:
	$(GO) run ./cmd/experiments -run all -q -out results -figures results/figures > /dev/null

# Regenerate every artifact into a temporary directory and diff it against
# the committed results/: a copy that no longer matches the tree fails.
# About 2 s.
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/experiments -run all -q -out "$$tmp" -figures "$$tmp/figures" > /dev/null && \
	diff -r results "$$tmp"

# Non-test Go outside benchmark/ and bench-compare's .bench_build/ checkouts,
# in lines, against the standing rule that no change leaves the count above
# 23 344: prints both, and fails above.
loc:
	@n=$$(find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' -not -name '*_test.go' | xargs cat | wc -l); budget=23344; \
	echo "non-test Go lines: $$n (budget $$budget)"; \
	if [ "$$n" -gt "$$budget" ]; then echo "loc: $$n lines exceed the budget of $$budget"; exit 1; fi

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
