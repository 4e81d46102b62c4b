// Package repro reproduces "Characterization of Backfilling Strategies
// for Parallel Job Scheduling" (Srinivasan, Kettimuthu, Subramani &
// Sadayappan, ICPP Workshops 2002) as an executable Go codebase.
//
// The package itself holds only the top-level benchmark suite
// (bench_test.go); the simulator lives in the internal packages:
//
//   - internal/job, internal/workload, internal/swf — job model, synthetic
//     trace generators, and Standard Workload Format parsing.
//   - internal/sched — the availability profile and every backfilling
//     scheduler variant (conservative, EASY, slack-based, depth-k
//     lookahead, selective, preemptive).
//   - internal/sim, internal/metrics — event-driven simulation sessions
//     and the paper's metrics.
//   - internal/sweep, internal/runner — factorial experiment sweeps with
//     parallel, cache-backed execution.
//   - internal/serve — the online scheduling daemon behind cmd/schedd.
//
// DESIGN.md documents the architecture, PERFORMANCE.md the benchmark,
// the paired comparison and the profiling workflow, and cmd/experiments regenerates the
// paper's tables and figures.
package repro
