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
//
// A withdrawal invalidates the pass memo only when the last pass's
// conclusion could depend on the job (DESIGN.md §15): each engine's Cancel
// names the jobs it does; an arrival still in the arrivals buffer never does.
type Canceler interface {
	Cancel(now int64, j *job.Job) bool
}

// Cancel withdraws a queued job. A pass reads only the head it leaves
// blocked and, where preemption can fire, the jobs at the threshold: every
// other job failed to fit against a reservation its departure leaves where
// it was.
func (s *shadowEngine) Cancel(now int64, j *job.Job) bool {
	e, settled := s.withdraw(j)
	if settled && (e == s.cachedHead || s.preempts() && XFactor(e, now) >= s.threshold) {
		s.memo.invalidate()
	}
	return e != nil
}

// Cancel withdraws a queued job from the preemptive scheduler. Suspended
// jobs cannot be cancelled (they hold banked work); Cancel reports false
// for them so the caller knows the job is bound to this site.
func (s *Preemptive) Cancel(now int64, j *job.Job) bool {
	if c, _ := s.consumed.Get(j.ID); c > 0 {
		return false
	}
	return s.shadowEngine.Cancel(now, j)
}

// Cancel withdraws a queued job. Only the blocked head stops a pass, so only
// its departure can let one start anything.
func (s *NoBackfill) Cancel(_ int64, j *job.Job) bool {
	e, settled := s.withdraw(j)
	if settled && e == s.cachedHead {
		s.memo.invalidate()
	}
	return e != nil
}

// Cancel withdraws a queued job. A job sorting behind the last protected one
// holds no plan slot, so the plan and every probe against it are unchanged.
func (s *DepthK) Cancel(now int64, j *job.Job) bool {
	e, settled := s.withdraw(j)
	if settled && s.lastProtected != nil && !s.pol.Less(s.lastProtected, e, now) {
		s.memo.invalidate()
	}
	return e != nil
}

// Cancel withdraws a queued job from the reservation engine, releasing its
// window if it holds one and compressing the remaining queue into the hole
// it leaves. A job without a window reserved nothing, so withdrawing it
// leaves the memo standing.
func (s *resvEngine) Cancel(now int64, j *job.Job) bool {
	e, _ := s.withdraw(j)
	if e == nil {
		return false
	}
	if start, granted := s.resv.Get(e.ID); granted {
		s.memo.invalidate()
		s.resv.Drop(e.ID)
		s.guarantee.Drop(e.ID)
		s.release(now, start, e)
		if !s.noCompress && s.holes {
			s.compress(now)
		}
	}
	return true
}
