package sched

import (
	"fmt"
	"slices"

	"repro/internal/job"
)

// Preemptive implements selective preemption in the spirit of the authors'
// companion paper (Kettimuthu et al., "Selective preemption strategies for
// parallel job scheduling", ICPP 2002, cited as [6]): EASY backfilling
// augmented with suspension. When a queued job's expansion factor crosses
// PreemptThreshold and it still cannot start, the scheduler suspends the
// cheapest set of running victims — lowest priority first — wide enough to
// make room, subject to two safeguards that prevent thrash:
//
//   - a victim must have run at least MinRun seconds since its last
//     dispatch, so work always progresses between preemptions;
//   - a victim's own expansion factor must be strictly below the starving
//     job's, so preemption always flows from less- to more-starved work and
//     cycles cannot tighten.
//
// Suspended jobs return to the queue with their elapsed runtime banked;
// they resume (running only their remainder) like any other start, and
// their growing expansion factor makes them preempt-back candidates —
// bounded, not unbounded, by the safeguards above.
type Preemptive struct {
	lifecycle
	preemptThreshold float64
	minRun           int64

	free    int
	running []runInfo // in shadow order, see insertRunner
	// consumed banks elapsed runtime per suspended/running job so the
	// scheduler can plan with remaining estimates.
	consumed map[int]int64
	// protected marks jobs started via preemption: they run to completion
	// and are never victims themselves. Without this, a preempted-for job
	// and its victims can trade the machine back and forth as their
	// expansion factors leapfrog (both grow with time-in-system).
	protected map[int]bool

	// Incremental-pass state (DESIGN.md §15), mirroring EASY's: the cached
	// phase-2 reservation of the last completed pass, extended with the
	// lifecycle's arrivals since. memo.nextAt additionally bounds the
	// preemption trigger — the earliest instant any queued job's expansion
	// factor reaches PreemptThreshold. memoAllow records whether that pass
	// ran the preemption phase; a call with the other mode cannot reuse it.
	memoAllow  bool
	blocked    bool
	cachedHead *job.Job
	shadow     int64
	extra      int
}

// DefaultMinRun is the default guaranteed run quantum between preemptions.
const DefaultMinRun = 300

// NewPreemptive returns a preemptive EASY scheduler. threshold is the
// expansion factor at which a waiting job may trigger preemption (>= 1);
// minRun is the guaranteed quantum (>= 1; DefaultMinRun is a sensible
// choice). It panics on invalid arguments.
func NewPreemptive(procs int, pol Policy, threshold float64, minRun int64) *Preemptive {
	if threshold < 1 {
		panic(fmt.Sprintf("sched: NewPreemptive threshold %v < 1", threshold))
	}
	if minRun < 1 {
		panic(fmt.Sprintf("sched: NewPreemptive minRun %d < 1", minRun))
	}
	return &Preemptive{
		lifecycle:        newLifecycle("NewPreemptive", procs, pol, true),
		preemptThreshold: threshold,
		minRun:           minRun,
		free:             procs,
		consumed:         make(map[int]int64),
		protected:        make(map[int]bool),
	}
}

// Name returns e.g. "Preemptive(FCFS,xf>=5)".
func (s *Preemptive) Name() string {
	return fmt.Sprintf("Preemptive(%s,xf>=%g)", s.pol.Name(), s.preemptThreshold)
}

// Complete returns the job's processors and invalidates the pass memo.
func (s *Preemptive) Complete(_ int64, j *job.Job) {
	s.memo.invalidate()
	s.free += j.Width
	delete(s.consumed, j.ID)
	delete(s.protected, j.ID)
	for i := range s.running {
		if s.running[i].j.ID == j.ID {
			s.running = append(s.running[:i], s.running[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("sched: Preemptive completion for unknown %v", j))
}

// remainingEstimate is the job's wall-limit remainder given the runtime it
// has already consumed across dispatches.
func (s *Preemptive) remainingEstimate(j *job.Job) int64 {
	rem := j.Estimate - s.consumed[j.ID]
	if rem < 1 {
		rem = 1
	}
	return rem
}

// Launch satisfies sim.Scheduler; the engine uses LaunchAndPreempt when the
// scheduler is registered as a Preemptor, but Launch keeps the type usable
// anywhere a plain scheduler is expected (it simply never preempts).
func (s *Preemptive) Launch(now int64) []*job.Job {
	starts, _ := s.launch(now, false)
	return starts
}

// LaunchAndPreempt implements sim.Preemptor.
func (s *Preemptive) LaunchAndPreempt(now int64) (starts, suspends []*job.Job) {
	return s.launch(now, true)
}

// launch runs the EASY pass and, when allowed, the preemption step. Futile
// passes are skipped via the memo (whose nextAt also bounds the preemption
// trigger); arrivals-only passes against an unchanged blocked head evaluate
// just the new jobs, as in EASY.
func (s *Preemptive) launch(now int64, allowPreempt bool) (starts, suspends []*job.Job) {
	if allowPreempt == s.memoAllow {
		if s.memo.canSkip(now) {
			return nil, nil
		}
		if out, ok := s.launchIncremental(now); ok {
			return out, nil
		}
	}
	return s.launchFull(now, allowPreempt)
}

// launchIncremental mirrors EASY's arrivals-only pass with the extra
// precondition that no job — old (bounded by nextAt) or new (checked here)
// — has reached the preemption threshold, so phase 4 provably does
// nothing. Reports false when a full pass must run.
func (s *Preemptive) launchIncremental(now int64) ([]*job.Job, bool) {
	if !s.memo.arrivalsOnly() || !s.blocked || now >= s.memo.nextAt {
		return nil, false
	}
	if len(s.queue) == 0 || s.queue[0] != s.cachedHead {
		return nil, false // an arrival displaced the head: new reservation holder
	}
	for _, j := range s.new {
		if XFactor(j, now) >= s.preemptThreshold {
			return nil, false // the arrival could trigger preemption
		}
	}
	sortQueue(s.new, s.pol, now)
	nextAt := s.memo.nextAt
	var out []*job.Job
	for _, j := range s.new {
		fitsNow := j.Width <= s.free
		switch {
		case fitsNow && now+s.remainingEstimate(j) <= s.shadow:
			s.startRun(now, j)
			s.queue = removeJob(s.queue, j)
			out = append(out, j)
		case fitsNow && j.Width <= s.extra:
			s.startRun(now, j)
			s.extra -= j.Width
			s.queue = removeJob(s.queue, j)
			out = append(out, j)
		default:
			nextAt = minInt64(nextAt, xfCrossTime(j, s.preemptThreshold, now))
		}
	}
	s.endPass(now, nextAt)
	return out, true
}

// startRun dispatches j at now (queue removal is the caller's business).
func (s *Preemptive) startRun(now int64, j *job.Job) {
	s.free -= j.Width
	s.running = insertRunner(s.running, runInfo{j: j, start: now, estEnd: now + s.remainingEstimate(j)})
}

// launchFull is the unconditional pass.
func (s *Preemptive) launchFull(now int64, allowPreempt bool) (starts, suspends []*job.Job) {
	sortQueue(s.queue, s.pol, now)

	start := func(j *job.Job) {
		s.startRun(now, j)
		starts = append(starts, j)
	}

	// Phase 1: heads that fit.
	n := 0
	for n < len(s.queue) && s.queue[n].Width <= s.free {
		start(s.queue[n])
		n++
	}
	s.queue = compactFront(s.queue, n)
	if len(s.queue) == 0 {
		s.finishPass(now, false, allowPreempt, noWake)
		return starts, nil
	}

	// Phase 2+3: the EASY shadow reservation and backfill pass for the
	// blocked head.
	head := s.queue[0]
	s.shadow, s.extra = headReservation(s.running, s.free, head)
	kept := s.queue[:1]
	for _, j := range s.queue[1:] {
		fitsNow := j.Width <= s.free
		switch {
		case fitsNow && now+s.remainingEstimate(j) <= s.shadow:
			start(j)
		case fitsNow && j.Width <= s.extra:
			start(j)
			s.extra -= j.Width
		default:
			kept = append(kept, j)
		}
	}
	s.queue = clearTail(s.queue, len(kept))

	// Phase 4: selective preemption for the most starved waiting job. The
	// trigger deliberately looks beyond the priority head: under SJF the
	// starving wide job is by definition *never* the head — that is the
	// starvation mechanism — so head-only preemption would never fire.
	if allowPreempt {
		starving := -1
		starvingXF := s.preemptThreshold
		for i, j := range s.queue {
			if xf := XFactor(j, now); xf >= starvingXF {
				starving = i
				starvingXF = xf
			}
		}
		if starving >= 0 {
			if victims := s.chooseVictims(now, s.queue[starving], starvingXF); victims != nil {
				target := s.queue[starving]
				for _, v := range victims {
					suspends = append(suspends, v.j)
					s.suspend(now, v)
				}
				// The starving job starts in the space the victims vacated
				// and runs to completion (protected from counter-preemption).
				copy(s.queue[starving:], s.queue[starving+1:])
				s.queue = clearTail(s.queue, len(s.queue)-1)
				s.protected[target.ID] = true
				start(target)
				// Suspension re-queued the victims at the tail, out of
				// policy order, and freed structure mid-pass: the next pass
				// must run — and sort — in full.
				s.memo.invalidate()
				s.clearNew()
				return starts, suspends
			}
		}
	}

	// The pass is a fixpoint. The only time-triggered action left is the
	// preemption threshold: bound it by the earliest crossing among queued
	// jobs (xfCrossTime returns now itself for a job already past it, e.g.
	// when preemption just failed for lack of admissible victims, so only
	// same-instant repeats are skipped in that state).
	nextAt := int64(noWake)
	for _, j := range s.queue {
		nextAt = minInt64(nextAt, xfCrossTime(j, s.preemptThreshold, now))
	}
	s.finishPass(now, true, allowPreempt, nextAt)
	return starts, nil
}

// finishPass records the pass conclusion (see EASY.finishPass).
func (s *Preemptive) finishPass(now int64, blocked, allow bool, nextAt int64) {
	s.blocked = blocked
	s.cachedHead = nil
	if blocked {
		s.cachedHead = s.queue[0]
	}
	s.memoAllow = allow
	s.endPass(now, nextAt)
}

// chooseVictims picks the cheapest set of running jobs (ascending priority:
// the *last* jobs the policy would run) whose suspension frees enough
// processors for the starving head, or nil if no admissible set exists.
func (s *Preemptive) chooseVictims(now int64, head *job.Job, headXF float64) []runInfo {
	candidates := make([]runInfo, 0, len(s.running))
	for _, r := range s.running {
		if s.protected[r.j.ID] {
			continue // itself started via preemption: runs to completion
		}
		if now-r.start < s.minRun {
			continue // guaranteed quantum not yet served
		}
		if XFactor(r.j, now) >= headXF {
			continue // as starved as the head: not an admissible victim
		}
		candidates = append(candidates, r)
	}
	// Lowest priority first — suspend the jobs the policy values least.
	slices.SortStableFunc(candidates, func(a, b runInfo) int {
		return policyCmp(s.pol, b.j, a.j, now)
	})
	freed := s.free
	var chosen []runInfo
	for _, c := range candidates {
		if freed >= head.Width {
			break
		}
		chosen = append(chosen, c)
		freed += c.j.Width
	}
	if freed < head.Width {
		return nil
	}
	return chosen
}

// suspend moves a running job back to the queue, banking its elapsed
// runtime.
func (s *Preemptive) suspend(now int64, r runInfo) {
	s.consumed[r.j.ID] += now - r.start
	s.free += r.j.Width
	for i := range s.running {
		if s.running[i].j.ID == r.j.ID {
			s.running = append(s.running[:i], s.running[i+1:]...)
			break
		}
	}
	s.queue = append(s.queue, r.j)
}
