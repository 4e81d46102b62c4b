package sched

import (
	"fmt"

	"repro/internal/job"
)

// NoBackfill is the classic space-sharing scheduler without backfilling:
// jobs are considered strictly in priority order and scheduling stops at the
// first job that does not fit. It is the baseline whose poor utilization
// motivated backfilling in the first place (§2 of the paper).
//
// Passes are incremental (DESIGN.md §15): the queue stays in policy order
// via ordered insertion under time-invariant policies, and the pass memo
// skips passes entirely while the cached head remains too wide — a
// completion only matters once cumulative free capacity reaches the head's
// width.
type NoBackfill struct {
	lifecycle
	free       int
	cachedHead *job.Job
}

// NewNoBackfill returns a no-backfilling scheduler for a machine with procs
// processors under the given priority policy. It panics if procs < 1 or pol
// is nil.
func NewNoBackfill(procs int, pol Policy) *NoBackfill {
	return &NoBackfill{lifecycle: newLifecycle("NewNoBackfill", procs, pol, false), free: procs}
}

// Name returns e.g. "NoBackfill(FCFS)".
func (s *NoBackfill) Name() string { return fmt.Sprintf("NoBackfill(%s)", s.pol.Name()) }

// Complete returns the job's processors. Behind a blocked head the memo is
// invalidated only when the accumulated free capacity reaches that head's
// width: anything less cannot start it, and no other job may jump it.
func (s *NoBackfill) Complete(_ int64, j *job.Job) {
	s.free += j.Width
	if s.cachedHead == nil || s.free >= s.cachedHead.Width {
		s.memo.invalidate()
	}
}

// Launch starts jobs from the head of the priority-ordered queue until the
// head no longer fits. No job ever jumps an earlier one. A pass the memo
// proves futile — same instant, or a still-too-wide head under a
// time-invariant policy — returns immediately; arrivals that sort behind a
// blocked head are equally futile.
func (s *NoBackfill) Launch(now int64) []*job.Job {
	if s.memo.canSkip(now) {
		return nil
	}
	if s.memo.arrivalsOnly() && len(s.queue) > 0 && s.queue[0] == s.cachedHead {
		// The blocked head is unchanged, so every arrival sorted behind it
		// and nothing can start.
		s.memo.completePass(now, noWake)
		return nil
	}
	s.resort(now)
	var out []*job.Job
	n := 0
	for n < len(s.queue) && s.queue[n].Width <= s.free {
		s.free -= s.queue[n].Width
		out = append(out, s.queue[n])
		n++
	}
	s.queue = compactFront(s.queue, n)
	s.cachedHead = nil
	if len(s.queue) > 0 {
		s.cachedHead = s.queue[0]
	}
	s.memo.completePass(now, noWake)
	return out
}
