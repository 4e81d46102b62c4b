package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/job"
)

// runInfo tracks one running job with the window the scheduler planned for
// it (start through start plus its remaining estimate).
type runInfo struct {
	j      *job.Job
	start  int64
	estEnd int64
}

// insertRunner adds r to rs, which is kept in shadow order: by (estEnd, job
// ID), the order a head reservation releases processors in. A runner's key
// never changes while it runs, so the running set is ordered once, on
// insertion, and headReservation walks it with no copy and no sort.
func insertRunner(rs []runInfo, r runInfo) []runInfo {
	i, _ := slices.BinarySearchFunc(rs, r, func(a, b runInfo) int {
		if c := cmp.Compare(a.estEnd, b.estEnd); c != 0 {
			return c
		}
		return cmp.Compare(a.j.ID, b.j.ID)
	})
	return slices.Insert(rs, i, r)
}

// removeRunner deletes job id's record from rs, preserving order, and
// reports whether it was there.
func removeRunner(rs []runInfo, id int) ([]runInfo, bool) {
	for i := range rs {
		if rs[i].j.ID == id {
			return slices.Delete(rs, i, i+1), true
		}
	}
	return rs, false
}

// shadowEngine is backfilling against a single reservation, the one
// mechanism under EASY and Preemptive. Only the head of the priority queue
// is protected: its shadow time is when, by the runners' remaining
// estimates, enough processors will have been freed for it, and extra is
// what is left over at that instant. Any other queued job may start now if
// it ends by the shadow time or fits in the extra processors. Selective
// preemption [6] is that same pass followed by one more phase, which
// suspends runners for a job whose expansion factor has crossed threshold.
//
// The two shells differ in three plain fields fixed at construction;
// everything else the engine derives from its own state (whether anything
// has been banked in consumed, whether threshold can ever be reached),
// never from knowing which shell it sits under.
//
// Passes are incremental (DESIGN.md §15): the queue is kept in policy order
// by ordered insertion under time-invariant policies, a pass memo skips
// launches that provably cannot start anything, and an arrivals-only pass
// evaluates just the new jobs against the cached reservation instead of
// rescanning the whole queue. Every fast path is pinned behavior-identical
// to the full pass by FuzzLaunchIncremental.
type shadowEngine struct {
	lifecycle

	// Which eligible candidate a backfill phase prefers.
	order BackfillOrder
	// The expansion factor at which a waiting job may have runners
	// suspended for it; +Inf = never preempts.
	threshold float64
	// How long a runner is guaranteed to run between suspensions.
	minRun int64

	free    int
	running []runInfo // in shadow order, see insertRunner
	// consumed banks the runtime a suspended job has already had, so that
	// it is planned by its remaining estimate. protected marks jobs started
	// via preemption: they run to completion and are never victims
	// themselves — without it a preempted-for job and its victims can trade
	// the machine back and forth as their expansion factors leapfrog. Only
	// the shell that can suspend writes them; under the other they stay
	// empty.
	consumed  job.Table[int64]
	protected job.Table[struct{}]

	// cachedHead/shadow/extra cache the reservation of the last completed
	// pass — cachedHead is the head it left blocked, nil when it left none
	// — so an arrivals-only pass can extend it with the lifecycle's new
	// buffer. memoAllow records whether that pass ran the preemption phase:
	// a call in the other mode cannot reuse its conclusion. memo.nextAt
	// bounds the preemption trigger — the earliest instant a queued job's
	// expansion factor reaches threshold.
	cachedHead *job.Job
	shadow     int64
	extra      int
	memoAllow  bool

	// candidates and suspends back the preemption phase's lists, so an
	// attempt allocates nothing once they have grown; suspends is what
	// LaunchAndPreempt returns, read before the next pass (sim.Preemptor's
	// contract).
	candidates []runInfo
	suspends   []*job.Job
}

// newShadowEngine returns an engine with an empty machine.
func newShadowEngine(ctor string, procs int, pol Policy, order BackfillOrder, threshold float64, minRun int64) shadowEngine {
	return shadowEngine{
		lifecycle: newLifecycle(ctor, procs, pol, true),
		order:     order,
		threshold: threshold,
		minRun:    minRun,
		free:      procs,
	}
}

// preempts reports whether a waiting job can ever reach the threshold. When
// none can, no pass has a time trigger, and none is computed.
func (s *shadowEngine) preempts() bool { return !math.IsInf(s.threshold, 1) }

// Presize implements sim.Presizer: the tables only the suspending shell
// fills are laid out once for a run's jobs.
func (s *shadowEngine) Presize(jobs []*job.Job) {
	if s.preempts() {
		s.consumed.Presize(jobs)
		s.protected.Presize(jobs)
	}
}

// remaining is the job's wall-limit remainder given the runtime it has
// already consumed across dispatches.
func (s *shadowEngine) remaining(j *job.Job) int64 {
	if s.consumed.Len() == 0 {
		return j.Estimate
	}
	c, _ := s.consumed.Get(j.ID)
	return max(j.Estimate-c, 1)
}

// Complete returns the job's processors and forgets its running record and
// whatever was banked for it. Freed capacity can unblock the head or move
// the shadow, so the pass memo is invalidated.
func (s *shadowEngine) Complete(_ int64, j *job.Job) {
	s.memo.invalidate()
	s.free += j.Width
	s.consumed.Drop(j.ID)
	s.protected.Drop(j.ID)
	var ok bool
	if s.running, ok = removeRunner(s.running, j.ID); !ok {
		panic(fmt.Sprintf("sched: completion for unknown %v", j))
	}
}

// Launch is one scheduling pass that never preempts.
func (s *shadowEngine) Launch(now int64) []*job.Job {
	starts, _ := s.launch(now, false)
	return starts
}

// launch runs one pass: start priority-order heads while they fit, then
// compute the blocked head's shadow reservation, backfill lower-priority
// jobs against it and, when allowed, preempt for a starving one. A pass the
// memo proves futile returns immediately; an arrivals-only pass under a
// time-invariant policy evaluates just the new jobs against the cached
// reservation. Both rest on the last pass having run in the same mode.
func (s *shadowEngine) launch(now int64, allowPreempt bool) (starts, suspends []*job.Job) {
	if allowPreempt == s.memoAllow {
		if s.memo.canSkip(now) {
			return nil, nil
		}
		if out, ok := s.launchIncremental(now); ok {
			s.memo.counts.Settled++
			return s.passStarts(out), nil
		}
	}
	s.memo.counts.Full++
	starts, suspends = s.launchFull(now, allowPreempt)
	return s.passStarts(starts), suspends
}

// start dispatches j at now (queue removal is the caller's business).
func (s *shadowEngine) start(now int64, j *job.Job) {
	s.free -= j.Width
	s.running = insertRunner(s.running, runInfo{j: j, start: now, estEnd: now + s.remaining(j)})
}

// fits reports whether j may start now without delaying the head: it fits
// in the idle processors and either ends (per its remaining estimate) by
// the shadow time or, as usesExtra then says, only uses processors the head
// will not need.
func (s *shadowEngine) fits(now int64, j *job.Job) (ok, usesExtra bool) {
	if j.Width > s.free {
		return false, false
	}
	if now+s.remaining(j) <= s.shadow {
		return true, false
	}
	return j.Width <= s.extra, true
}

// admit reports whether j may start now and, when it is the extra
// processors that let it, takes its width out of them. The caller starts j.
func (s *shadowEngine) admit(now int64, j *job.Job) bool {
	ok, usesExtra := s.fits(now, j)
	if ok && usesExtra {
		s.extra -= j.Width
	}
	return ok
}

// launchIncremental extends the last pass's conclusion with the arrivals
// since: with no structural change, a time-invariant policy, the same
// blocked head and no job — old (bounded by nextAt) or new (checked here) —
// at the preemption threshold, every previously kept job is still
// unstartable (free and extra only shrank, the shadow is fixed, and now
// only grew) and the preemption phase provably does nothing, so only the
// new jobs need evaluating — against the cached shadow/extra, in their
// policy order, exactly as the full pass would at their queue positions.
// It reports false when the precondition fails and a full pass must run.
func (s *shadowEngine) launchIncremental(now int64) ([]*job.Job, bool) {
	if !s.memo.arrivalsOnly() || s.order != FirstFit || now >= s.memo.nextAt {
		return nil, false
	}
	if len(s.queue) == 0 || s.queue[0] != s.cachedHead {
		return nil, false // no head was blocked, or an arrival displaced it: new reservation holder
	}
	timed := s.preempts()
	for _, j := range s.new {
		if timed && XFactor(j, now) >= s.threshold {
			return nil, false // the arrival could trigger preemption
		}
	}
	sortQueue(s.new, s.pol, now)
	nextAt := s.memo.nextAt
	out := s.startList()
	for _, j := range s.new {
		if s.admit(now, j) {
			s.start(now, j)
			s.queue = removeJob(s.queue, j)
			out = append(out, j)
		} else if timed {
			nextAt = min(nextAt, xfCrossTime(j, s.threshold, now))
		}
	}
	s.endPass(now, nextAt)
	return out, true
}

// launchFull is the unconditional pass.
func (s *shadowEngine) launchFull(now int64, allowPreempt bool) (starts, suspends []*job.Job) {
	s.resort(now)
	starts = s.startList()

	// Phase 1: the head of the queue starts whenever it fits.
	n := 0
	for n < len(s.queue) && s.queue[n].Width <= s.free {
		s.start(now, s.queue[n])
		starts = append(starts, s.queue[n])
		n++
	}
	s.queue = compactFront(s.queue, n)
	if len(s.queue) == 0 {
		s.finishPass(now, allowPreempt, noWake)
		return starts, nil
	}

	// Phase 2: the head is blocked. Give it the sole reservation: the
	// shadow time is when, by current estimates, enough processors will
	// have been freed; extra is what remains beyond the head's need then.
	s.shadow, s.extra = headReservation(s.running, s.free, s.queue[0])

	// Phase 3: backfill the rest of the queue against that reservation.
	if s.order == FirstFit {
		starts = s.backfillInOrder(now, starts)
	} else {
		starts = s.backfillPreferred(now, starts)
	}

	// Phase 4, in a pass that may: suspend runners for a starving job.
	if allowPreempt {
		if target, victims := s.preempt(now); target != nil {
			return append(starts, target), victims
		}
	}

	// The pass is a fixpoint: free capacity cannot grow, the shadow cannot
	// move, and the by-shadow window only narrows as now advances. The only
	// time-triggered action left is the preemption threshold: bound it by
	// the earliest crossing among queued jobs (xfCrossTime returns now
	// itself for a job already past it, e.g. when preemption just failed
	// for lack of admissible victims, so only same-instant repeats are
	// skipped in that state).
	nextAt := int64(noWake)
	if s.preempts() {
		for _, j := range s.queue {
			nextAt = min(nextAt, xfCrossTime(j, s.threshold, now))
		}
	}
	s.finishPass(now, allowPreempt, nextAt)
	return starts, nil
}

// backfillInOrder is phase 3 under FirstFit: one scan that takes candidates
// in priority order. It returns starts extended with the jobs it started.
func (s *shadowEngine) backfillInOrder(now int64, starts []*job.Job) []*job.Job {
	kept := s.queue[:1]
	for _, j := range s.queue[1:] {
		if s.admit(now, j) {
			s.start(now, j)
			starts = append(starts, j)
		} else {
			kept = append(kept, j)
		}
	}
	s.queue = clearTail(s.queue, len(kept))
	return starts
}

// backfillPreferred is phase 3 under BestFit and ShortestFit: repeatedly
// start the preferred eligible candidate (each start changes eligibility,
// so selection iterates).
func (s *shadowEngine) backfillPreferred(now int64, starts []*job.Job) []*job.Job {
	for {
		var best *job.Job
		for _, j := range s.queue[1:] {
			if ok, _ := s.fits(now, j); ok && (best == nil || s.prefer(j, best)) {
				best = j
			}
		}
		if best == nil {
			return starts
		}
		s.admit(now, best)
		s.start(now, best)
		starts = append(starts, best)
		s.queue = removeJob(s.queue, best)
	}
}

// finishPass records the pass's conclusion: the head left blocked, if any,
// the mode the pass ran in, and nextAt as the memo's time-trigger bound.
func (s *shadowEngine) finishPass(now int64, allowPreempt bool, nextAt int64) {
	s.cachedHead = nil
	if len(s.queue) > 0 {
		s.cachedHead = s.queue[0]
	}
	s.memoAllow = allowPreempt
	s.endPass(now, nextAt)
}

// prefer reports whether candidate a beats b under the configured backfill
// order (ties keep the earlier — higher-priority — candidate).
func (s *shadowEngine) prefer(a, b *job.Job) bool {
	switch s.order {
	case BestFit:
		return a.Width > b.Width
	case ShortestFit:
		return s.remaining(a) < s.remaining(b)
	default:
		return false
	}
}

// preempt is phase 4, selective preemption for the most starved waiting
// job: when its expansion factor has reached threshold and it still cannot
// start, the cheapest admissible set of runners is suspended and it starts
// in the space they vacate, protected from counter-preemption. It returns
// that job and the victims, or nil when nothing was suspended. The trigger
// deliberately looks beyond the priority head: under SJF the starving wide
// job is by definition *never* the head — that is the starvation mechanism
// — so head-only preemption would never fire.
func (s *shadowEngine) preempt(now int64) (target *job.Job, suspends []*job.Job) {
	starvingXF := s.threshold
	for _, j := range s.queue {
		if xf := XFactor(j, now); xf >= starvingXF {
			target, starvingXF = j, xf
		}
	}
	if target == nil {
		return nil, nil
	}
	victims := s.chooseVictims(now, target, starvingXF)
	if len(victims) == 0 {
		return nil, nil
	}
	suspends = s.suspends[:0]
	for _, v := range victims {
		// Back to the queue, with the elapsed runtime banked.
		c, _ := s.consumed.Get(v.j.ID)
		s.consumed.Set(v.j.ID, c+now-v.start)
		s.free += v.j.Width
		s.running, _ = removeRunner(s.running, v.j.ID)
		// The queue is in policy order at now (the pass sorted it and only
		// removed since), so the victim goes back at its position.
		s.queue = orderedInsert(s.queue, v.j, s.pol, now)
		suspends = append(suspends, v.j)
	}
	s.queue = removeJob(s.queue, target)
	s.protected.Set(target.ID, struct{}{})
	s.start(now, target)
	// Suspension freed structure mid-pass: the next pass must run in full.
	s.memo.invalidate()
	s.clearNew()
	s.suspends = suspends
	return target, suspends
}

// chooseVictims picks the cheapest set of running jobs (ascending priority:
// the *last* jobs the policy would run) whose suspension frees enough
// processors for the starving job, or none when no admissible set exists or
// the job needs no victim; the list is the engine's own, valid until the
// next attempt. Two safeguards prevent thrash: a victim must have run at
// least minRun seconds since its last dispatch, so work always progresses
// between preemptions; and its own expansion factor must be strictly below
// the starving job's, so preemption always flows from less- to more-starved
// work and cycles cannot tighten.
func (s *shadowEngine) chooseVictims(now int64, starving *job.Job, starvingXF float64) []runInfo {
	candidates := s.candidates[:0]
	for _, r := range s.running {
		if _, p := s.protected.Get(r.j.ID); p || now-r.start < s.minRun || XFactor(r.j, now) >= starvingXF {
			continue
		}
		candidates = append(candidates, r)
	}
	// Lowest priority first — suspend the jobs the policy values least.
	slices.SortStableFunc(candidates, func(a, b runInfo) int {
		return policyCmp(s.pol, b.j, a.j, now)
	})
	s.candidates = candidates
	freed, n := s.free, 0
	for n < len(candidates) && freed < starving.Width {
		freed += candidates[n].j.Width
		n++
	}
	if freed < starving.Width {
		return nil
	}
	return candidates[:n]
}

// headReservation computes the shadow time at which the blocked head job
// could start by the runners' planned ends, and the extra processors free at
// that time beyond the head's requirement. free is the idle processor count
// now; runners is the running set in shadow order (see insertRunner).
func headReservation(runners []runInfo, free int, head *job.Job) (shadow int64, extra int) {
	avail := free
	for i, r := range runners {
		avail += r.j.Width
		if avail < head.Width {
			continue
		}
		// Processors released by runners ending at the same instant are
		// also free at the shadow time and count toward extra.
		for _, rr := range runners[i+1:] {
			if rr.estEnd != r.estEnd {
				break
			}
			avail += rr.j.Width
		}
		return r.estEnd, avail - head.Width
	}
	// Unreachable for valid inputs: the head's width is at most the
	// machine size, so draining every runner always frees enough.
	panic(fmt.Sprintf("sched: cannot place head %v: %d processors free once every runner has ended", head, avail))
}
