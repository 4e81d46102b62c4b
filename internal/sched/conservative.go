package sched

import (
	"fmt"

	"repro/internal/job"
)

// Conservative implements conservative backfilling (Mu'alem & Feitelson
// 2001): every job receives a start-time reservation the moment it enters
// the system, at the earliest instant that does not delay any previously
// existing guarantee. A job may move forward later — when an early
// completion opens a hole — but its guaranteed start never moves back.
//
// Because reservations are granted in arrival order, the queue priority
// policy matters only when holes appear: queued jobs are then reconsidered
// ("compressed") in priority order. With perfectly accurate user estimates
// no holes ever appear, which is exactly the paper's §4.1 observation that
// all priority policies yield the identical schedule.
type Conservative struct {
	procs      int
	pol        Policy
	noCompress bool
	profile    *Profile
	queue      []*job.Job
	resv       resvTable // queued job ID -> guaranteed start time
	running    map[int]runInfo

	// holes records whether free capacity has appeared in the profile (an
	// early-completion release, a cancellation, or a compression pass that
	// actually moved a job, which frees the mover's old slot) since the
	// last compression pass. While holes is false a compression pass is
	// provably the identity — arrivals and exact-time launches only consume
	// capacity, and FindStart at a later now can never return an earlier
	// slot from an unchanged profile — so Complete skips the whole
	// release/FindStart/reserve replan loop.
	holes bool

	// violations collects internal invariant breaches (never expected);
	// tests read them via Violations.
	violations []string

	// memo skips provably futile passes: launches are gated purely on
	// "reservation due" (resv[id] <= now), so while now is before the
	// earliest pending reservation and nothing has structurally changed, a
	// pass starts nothing (DESIGN.md §15). memo.nextAt tracks that earliest
	// reservation; reservations granted at Arrive fold into it, and
	// compression (which only moves reservations earlier) invalidates.
	memo passMemo
}

// NewConservative returns a conservative backfilling scheduler for a
// machine with procs processors under the given priority policy. It panics
// if procs < 1 or pol is nil.
func NewConservative(procs int, pol Policy) *Conservative {
	if procs < 1 {
		panic(fmt.Sprintf("sched: NewConservative with %d processors", procs))
	}
	if pol == nil {
		panic("sched: NewConservative with nil policy")
	}
	return &Conservative{
		procs:   procs,
		pol:     pol,
		profile: NewProfile(procs),
		resv:    newResvTable(),
		running: make(map[int]runInfo),
		memo:    newPassMemo(pol),
	}
}

// NewConservativeNoCompression returns a conservative scheduler that never
// re-places reservations when jobs finish early: holes left by early
// completions stay unexploited. It is the ablation for DESIGN.md decision 3
// — compression is where the priority policy earns its keep under
// inaccurate estimates, and this variant quantifies that.
func NewConservativeNoCompression(procs int, pol Policy) *Conservative {
	s := NewConservative(procs, pol)
	s.noCompress = true
	return s
}

// Name returns e.g. "Conservative(FCFS)" or "ConservativeNC(FCFS)" for the
// no-compression ablation.
func (s *Conservative) Name() string {
	if s.noCompress {
		return fmt.Sprintf("ConservativeNC(%s)", s.pol.Name())
	}
	return fmt.Sprintf("Conservative(%s)", s.pol.Name())
}

// Reservation returns the guaranteed start time of a queued job and whether
// the job is currently queued. Tests use it to verify the no-delay
// guarantee.
func (s *Conservative) Reservation(id int) (int64, bool) { return s.resv.get(id) }

// TrackReservationWrites switches on the reservation write log and returns
// its drain: each call yields the IDs of the jobs whose reservation was
// granted or moved since the previous call, valid until the scheduler is
// next called. internal/audit probes for this method and, finding it,
// re-checks only those jobs after an event; a wrapper that does not forward
// it is audited by a scan of every queued job instead.
func (s *Conservative) TrackReservationWrites() (drain func() []int) { return s.resv.track() }

// Violations returns internal invariant breaches detected so far (always
// empty unless there is a bug).
func (s *Conservative) Violations() []string {
	return append([]string(nil), s.violations...)
}

// Arrive grants the arriving job the earliest reservation that respects all
// existing guarantees, and queues it. The new reservation folds into the
// memo's earliest-pending bound so futile-pass skipping stays exact.
func (s *Conservative) Arrive(now int64, j *job.Job) {
	s.profile.Trim(now)
	start := s.profile.FindStart(now, j.Estimate, j.Width)
	s.profile.Reserve(start, j.Estimate, j.Width)
	s.resv.set(j.ID, start)
	s.memo.noteArrival()
	s.memo.nextAt = minInt64(s.memo.nextAt, start)
	if s.memo.timeInv {
		s.queue = orderedInsert(s.queue, j, s.pol, now)
		return
	}
	s.queue = append(s.queue, j)
}

// Complete releases the unused tail of the job's planned window (when it
// finished before its estimate) and compresses the queue: each waiting job,
// in priority order, moves to the earliest start that is no later than its
// existing guarantee.
func (s *Conservative) Complete(now int64, j *job.Job) {
	ri, ok := s.running[j.ID]
	if !ok {
		panic(fmt.Sprintf("sched: Conservative completion for unknown %v", j))
	}
	delete(s.running, j.ID)
	if now < ri.estEnd {
		s.profile.Release(now, ri.estEnd-now, j.Width)
		s.holes = true
	}
	s.profile.Trim(now)
	if !s.noCompress && s.holes {
		s.compress(now)
		// Launches are gated purely on the reservation map, which a
		// completion changes only through compression — so the memo
		// survives unless this pass actually moved a reservation (compress
		// leaves holes set exactly when it did).
		if s.holes {
			s.memo.invalidate()
		}
	}
}

// compress re-places queued reservations in priority order. Each job's
// reservation only ever moves earlier: its old slot remains feasible by
// construction, so FindStart can never be later (guarded anyway). A pass
// that moves at least one job leaves holes set, because the mover's
// vacated slot could let an earlier-processed job move on the next pass; a
// pass that moves nothing clears it, making the next pass skippable until
// capacity is freed again.
func (s *Conservative) compress(now int64) {
	sortQueue(s.queue, s.pol, now)
	moved := false
	for _, j := range s.queue {
		old, _ := s.resv.get(j.ID)
		if old <= now {
			continue // already startable; Launch will take it
		}
		if !s.profile.anyAtLeastBefore(now, old, j.Width) {
			continue // no instant before old has room: the job cannot move
		}
		start := s.profile.EarlierStart(now, old, j.Estimate, j.Width)
		if start >= old {
			continue // cannot move; the profile was never touched
		}
		moved = true
		s.profile.Release(old, j.Estimate, j.Width)
		s.profile.Reserve(start, j.Estimate, j.Width)
		s.resv.set(j.ID, start)
	}
	s.holes = moved
}

// Launch starts every queued job whose guaranteed start has arrived. A
// pass before the earliest pending reservation — the memo's nextAt, kept
// exact through arrivals — provably starts nothing and returns
// immediately.
func (s *Conservative) Launch(now int64) []*job.Job {
	if s.memo.canSkip(now) {
		return nil
	}
	if s.memo.arrivalsOnly() && now < s.memo.nextAt {
		// Every reservation, the new arrivals' included, is still in the
		// future; the queue is already in policy order from insertion.
		s.memo.completePass(now, s.memo.nextAt)
		return nil
	}
	sortQueue(s.queue, s.pol, now)
	var out []*job.Job
	nextAt := int64(noWake)
	kept := s.queue[:0]
	for _, j := range s.queue {
		start, ok := s.resv.get(j.ID)
		if !ok {
			panic(fmt.Sprintf("sched: Conservative queued %v has no reservation", j))
		}
		if start > now {
			nextAt = minInt64(nextAt, start)
			kept = append(kept, j)
			continue
		}
		if start < now {
			// A reservation should always be claimed at its exact instant
			// (every resource release is a completion event that triggers
			// compression). Realign the planned window defensively so the
			// profile stays consistent, and record the anomaly.
			s.violations = append(s.violations,
				fmt.Sprintf("%v launched at %d after its reservation %d", j, now, start))
			if rem := start + j.Estimate - now; rem > 0 {
				s.profile.Release(now, rem, j.Width)
			}
			s.profile.Reserve(now, j.Estimate, j.Width)
			s.holes = true
		}
		s.resv.drop(j.ID)
		s.running[j.ID] = runInfo{j: j, start: now, estEnd: now + j.Estimate}
		out = append(out, j)
	}
	s.queue = clearTail(s.queue, len(kept))
	s.memo.completePass(now, nextAt)
	return out
}

// NextWake reports the earliest pending reservation. With compression
// enabled every startable job is pulled to "now" at some completion event,
// so no wake-ups are needed; the no-compression ablation's fixed
// reservations can land between events and need a timer.
func (s *Conservative) NextWake(now int64) int64 {
	if !s.noCompress {
		return 0
	}
	var next int64
	for _, t := range s.resv.at {
		if t > now && (next == 0 || t < next) {
			next = t
		}
	}
	return next
}

// QueuedJobs returns the jobs still waiting.
func (s *Conservative) QueuedJobs() []*job.Job {
	return append([]*job.Job(nil), s.queue...)
}

// ProfilePoints reports the current size of the availability profile's
// step function (the benchmark ledger records its distribution per
// scheduler kind).
func (s *Conservative) ProfilePoints() int { return s.profile.NumPoints() }
