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

// removeQueued deletes a job from a queue slice by ID, reporting whether it
// was present. The vacated slot is cleared so the backing array does not
// retain the cancelled job.
func removeQueued(queue []*job.Job, id int) ([]*job.Job, bool) {
	for i, q := range queue {
		if q.ID == id {
			copy(queue[i:], queue[i+1:])
			return clearTail(queue, len(queue)-1), true
		}
	}
	return queue, false
}

// Cancel withdraws a queued job from EASY's queue.
func (s *EASY) Cancel(_ int64, j *job.Job) bool {
	var ok bool
	s.queue, ok = removeQueued(s.queue, j.ID)
	if ok {
		s.memo.invalidate()
	}
	return ok
}

// Cancel withdraws a queued job from the no-backfill queue.
func (s *NoBackfill) Cancel(_ int64, j *job.Job) bool {
	var ok bool
	s.queue, ok = removeQueued(s.queue, j.ID)
	if ok {
		s.memo.invalidate()
	}
	return ok
}

// Cancel withdraws a queued job from the lookahead-k queue (reservations
// are stateless, so nothing else needs releasing).
func (s *DepthK) Cancel(_ int64, j *job.Job) bool {
	var ok bool
	s.queue, ok = removeQueued(s.queue, j.ID)
	if ok {
		s.memo.invalidate()
	}
	return ok
}

// Cancel withdraws a queued job from the preemptive scheduler. Suspended
// jobs cannot be cancelled (they hold banked work); Cancel reports false
// for them so the caller knows the job is bound to this site.
func (s *Preemptive) Cancel(_ int64, j *job.Job) bool {
	if s.consumed[j.ID] > 0 {
		return false
	}
	var ok bool
	s.queue, ok = removeQueued(s.queue, j.ID)
	if ok {
		s.memo.invalidate()
	}
	return ok
}

// Cancel withdraws a queued job from conservative backfilling, releasing
// its reservation and compressing the remaining queue into the hole it
// leaves.
func (s *Conservative) Cancel(now int64, j *job.Job) bool {
	var ok bool
	s.queue, ok = removeQueued(s.queue, j.ID)
	if !ok {
		return false
	}
	s.memo.invalidate()
	start, _ := s.resv.get(j.ID)
	s.resv.drop(j.ID)
	end := start + j.Estimate
	if end > now {
		from := start
		if from < now {
			from = now
		}
		s.profile.Release(from, end-from, j.Width)
		s.holes = true
	}
	if !s.noCompress && s.holes {
		s.compress(now)
	}
	return true
}

// Cancel withdraws a queued job from the slack-based scheduler, releasing
// its reservation and compressing into the hole.
func (s *SlackBased) Cancel(now int64, j *job.Job) bool {
	var ok bool
	s.queue, ok = removeQueued(s.queue, j.ID)
	if !ok {
		return false
	}
	s.memo.invalidate()
	start, _ := s.resv.get(j.ID)
	s.resv.drop(j.ID)
	delete(s.guarantee, j.ID)
	end := start + j.Estimate
	if end > now {
		from := start
		if from < now {
			from = now
		}
		s.profile.Release(from, end-from, j.Width)
		s.holes = true
	}
	// Reuse the completion-path compression: it walks the queue in
	// priority order pulling reservations into freed space.
	if s.holes {
		s.compress(now)
	}
	return true
}

// Cancel withdraws a queued job from the selective scheduler, releasing a
// promoted job's reservation.
func (s *Selective) Cancel(now int64, j *job.Job) bool {
	var ok bool
	s.queue, ok = removeQueued(s.queue, j.ID)
	if !ok {
		return false
	}
	s.memo.invalidate()
	if start, promoted := s.resv[j.ID]; promoted {
		delete(s.resv, j.ID)
		end := start + j.Estimate
		if end > now {
			from := start
			if from < now {
				from = now
			}
			s.profile.Release(from, end-from, j.Width)
			s.holes = true
		}
		if s.holes {
			s.compress(now)
		}
	}
	return true
}
