package sched

import "repro/internal/job"

// Canceler is an optional scheduler extension: withdrawing a queued job
// before it starts. Multi-site grid scheduling needs it — a job submitted
// to several sites simultaneously is cancelled everywhere else the moment
// one site starts it (Subramani et al., "Distributed job scheduling on
// computational grids using multiple simultaneous requests", HPDC 2002,
// the paper's reference [12]).
//
// Cancel returns false when the job is not currently queued (already
// started or never seen); schedulers must treat that as a harmless no-op.
//
// Contract: after cancelling, the caller must give the scheduler another
// Launch pass at the same instant before time advances — reservation-based
// schedulers compress into the freed capacity, which can make a surviving
// job startable "now". grid.Run's fixed-point launch sweep provides this.
type Canceler interface {
	Cancel(now int64, j *job.Job) bool
}

// Cancel withdraws a queued job by ID, reporting whether it was present.
// The vacated slot is cleared so the backing array does not retain the
// cancelled job, and the pass memo is invalidated.
func (q *lifecycle) Cancel(_ int64, j *job.Job) bool {
	for i, e := range q.queue {
		if e.ID == j.ID {
			copy(q.queue[i:], q.queue[i+1:])
			q.queue = clearTail(q.queue, len(q.queue)-1)
			q.memo.invalidate()
			return true
		}
	}
	return false
}

// Cancel withdraws a queued job from the preemptive scheduler. Suspended
// jobs cannot be cancelled (they hold banked work); Cancel reports false
// for them so the caller knows the job is bound to this site.
func (s *Preemptive) Cancel(now int64, j *job.Job) bool {
	if s.consumed[j.ID] > 0 {
		return false
	}
	return s.lifecycle.Cancel(now, j)
}

// Cancel withdraws a queued job from the reservation engine, releasing its
// window if it holds one and compressing the remaining queue into the hole
// it leaves.
func (s *resvEngine) Cancel(now int64, j *job.Job) bool {
	if !s.lifecycle.Cancel(now, j) {
		return false
	}
	if start, granted := s.resv.get(j.ID); granted {
		s.resv.drop(j.ID)
		delete(s.guarantee, j.ID)
		s.release(now, start, j)
		if !s.noCompress && s.holes {
			s.compress(now)
		}
	}
	return true
}
