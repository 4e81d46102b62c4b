package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/job"
)

// runInfo tracks one running job with the window the scheduler planned for
// it (start through start+Estimate).
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

// EASY is aggressive backfilling as introduced by the EASY LoadLeveler
// scheduler (Lifka 1995; Skovira et al. 1996): only the job at the head of
// the priority queue holds a reservation. Any other queued job may leap
// forward as long as starting it now does not delay that single reservation
// — either it terminates (by its estimate) before the head's shadow time, or
// it fits within the "extra" processors the head does not need.
//
// The paper calls this simply "aggressive backfilling"; combined with SJF or
// XFactor priority it wins on average slowdown, at the cost of an unbounded
// worst-case delay for jobs that never reach the head (Tables 4 and 7).
//
// Passes are incremental (DESIGN.md §15): the queue is kept in policy order
// by ordered insertion under time-invariant policies, a pass memo skips
// launches that provably cannot start anything, and an arrivals-only pass
// evaluates just the new jobs against the cached shadow reservation instead
// of rescanning the whole queue. Every fast path is pinned behavior-
// identical to the full pass by FuzzLaunchIncremental.
type EASY struct {
	lifecycle
	order   BackfillOrder
	free    int
	running []runInfo // in shadow order, see insertRunner

	// Incremental-pass state: blocked/cachedHead/shadow/extra cache the
	// phase-2 reservation of the last completed pass so an arrivals-only
	// pass can extend it with the lifecycle's new buffer (already
	// ordered-inserted into queue — this is the "which jobs are new" view of
	// them).
	blocked    bool
	cachedHead *job.Job
	shadow     int64
	extra      int
}

// BackfillOrder selects which eligible candidate an EASY backfill pass
// prefers — a classic tuning knob from the backfilling literature. The
// queue *priority* still decides who is head and holds the reservation;
// the order only breaks competition among backfill candidates.
type BackfillOrder int

const (
	// FirstFit takes candidates in priority order (the default and what
	// the paper simulates).
	FirstFit BackfillOrder = iota
	// BestFit prefers the widest job that fits, packing the hole tightly.
	BestFit
	// ShortestFit prefers the candidate with the smallest estimate,
	// minimising how long backfilled work lingers.
	ShortestFit
)

// String names the order.
func (o BackfillOrder) String() string {
	switch o {
	case FirstFit:
		return "firstfit"
	case BestFit:
		return "bestfit"
	case ShortestFit:
		return "shortestfit"
	default:
		return fmt.Sprintf("BackfillOrder(%d)", int(o))
	}
}

// NewEASY returns an aggressive backfilling scheduler for a machine with
// procs processors under the given priority policy. It panics if procs < 1
// or pol is nil.
func NewEASY(procs int, pol Policy) *EASY {
	return NewEASYWithOrder(procs, pol, FirstFit)
}

// NewEASYWithOrder returns EASY with an explicit backfill candidate order.
func NewEASYWithOrder(procs int, pol Policy, order BackfillOrder) *EASY {
	if order < FirstFit || order > ShortestFit {
		panic(fmt.Sprintf("sched: NewEASY with unknown backfill order %d", order))
	}
	return &EASY{lifecycle: newLifecycle("NewEASY", procs, pol, true), order: order, free: procs}
}

// Name returns e.g. "EASY(FCFS)" or "EASY(FCFS,bestfit)".
func (s *EASY) Name() string {
	if s.order == FirstFit {
		return fmt.Sprintf("EASY(%s)", s.pol.Name())
	}
	return fmt.Sprintf("EASY(%s,%s)", s.pol.Name(), s.order)
}

// Complete returns the job's processors and forgets its running record.
// Freed capacity can unblock the head or move the shadow, so the pass memo
// is invalidated.
func (s *EASY) Complete(_ int64, j *job.Job) {
	s.memo.invalidate()
	s.free += j.Width
	for i := range s.running {
		if s.running[i].j.ID == j.ID {
			s.running = append(s.running[:i], s.running[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("sched: EASY completion for unknown %v", j))
}

// Launch implements one EASY scheduling pass: start priority-order heads
// while they fit, then compute the blocked head's shadow reservation and
// backfill lower-priority jobs against it. A pass the memo proves futile
// returns immediately; an arrivals-only pass under a time-invariant policy
// evaluates just the new jobs against the cached reservation.
func (s *EASY) Launch(now int64) []*job.Job {
	if s.memo.canSkip(now) {
		return nil
	}
	if out, ok := s.launchIncremental(now); ok {
		return out
	}
	return s.launchFull(now)
}

// start dispatches j at now (queue removal is the caller's business).
func (s *EASY) start(now int64, j *job.Job) {
	s.free -= j.Width
	s.running = insertRunner(s.running, runInfo{j: j, start: now, estEnd: now + j.Estimate})
}

// launchIncremental extends the last pass's conclusion with the arrivals
// since: with no structural change, a time-invariant policy, and the same
// blocked head, every previously kept job is still unstartable (free and
// extra only shrank, the shadow is fixed, and now only grew), so only the
// new jobs need evaluating — against the cached shadow/extra, in their
// policy order, exactly as the full pass would at their queue positions.
// It reports false when the precondition fails and a full pass must run.
func (s *EASY) launchIncremental(now int64) ([]*job.Job, bool) {
	if !s.memo.arrivalsOnly() || s.order != FirstFit || !s.blocked {
		return nil, false
	}
	if len(s.queue) == 0 || s.queue[0] != s.cachedHead {
		return nil, false // an arrival displaced the head: new reservation holder
	}
	sortQueue(s.new, s.pol, now)
	var out []*job.Job
	for _, j := range s.new {
		fitsNow := j.Width <= s.free
		switch {
		case fitsNow && now+j.Estimate <= s.shadow:
			s.start(now, j)
			s.queue = removeJob(s.queue, j)
			out = append(out, j)
		case fitsNow && j.Width <= s.extra:
			s.start(now, j)
			s.extra -= j.Width
			s.queue = removeJob(s.queue, j)
			out = append(out, j)
		default:
			if !fitsNow && j.Width < s.memo.blockedW {
				s.memo.blockedW = j.Width
			}
		}
	}
	s.endPass(now, noWake)
	return out, true
}

// launchFull is the unconditional EASY pass.
func (s *EASY) launchFull(now int64) []*job.Job {
	sortQueue(s.queue, s.pol, now)
	var out []*job.Job
	s.memo.blockedW = noWatermark

	// Phase 1: the head of the queue starts whenever it fits.
	n := 0
	for n < len(s.queue) && s.queue[n].Width <= s.free {
		s.start(now, s.queue[n])
		out = append(out, s.queue[n])
		n++
	}
	s.queue = compactFront(s.queue, n)
	if len(s.queue) == 0 {
		s.finishPass(now, false)
		return out
	}

	// Phase 2: the head is blocked. Give it the sole reservation: the
	// shadow time is when, by current estimates, enough processors will
	// have been freed; extra is what remains beyond the head's need then.
	head := s.queue[0]
	s.shadow, s.extra = headReservation(s.running, s.free, head)
	s.memo.blockedW = head.Width

	// Phase 3: backfill the rest of the queue. A job may start now iff it
	// fits now AND it either finishes (per its estimate) by the shadow
	// time or only uses processors the head will not need. FirstFit takes
	// candidates in priority order in one pass; BestFit/ShortestFit
	// repeatedly pick the preferred eligible candidate (each start changes
	// eligibility, so selection iterates).
	if s.order == FirstFit {
		kept := s.queue[:1]
		for _, j := range s.queue[1:] {
			fitsNow := j.Width <= s.free
			switch {
			case fitsNow && now+j.Estimate <= s.shadow:
				s.start(now, j)
				out = append(out, j)
			case fitsNow && j.Width <= s.extra:
				s.start(now, j)
				s.extra -= j.Width
				out = append(out, j)
			default:
				if !fitsNow && j.Width < s.memo.blockedW {
					s.memo.blockedW = j.Width
				}
				kept = append(kept, j)
			}
		}
		s.queue = clearTail(s.queue, len(kept))
		s.finishPass(now, true)
		return out
	}

	rest := append([]*job.Job(nil), s.queue[1:]...)
	for {
		bestIdx := -1
		bestUsesExtra := false
		for i, j := range rest {
			if j.Width > s.free {
				continue
			}
			byShadow := now+j.Estimate <= s.shadow
			if !byShadow && j.Width > s.extra {
				continue
			}
			if bestIdx == -1 || s.prefer(j, rest[bestIdx]) {
				bestIdx = i
				bestUsesExtra = !byShadow
			}
		}
		if bestIdx == -1 {
			break
		}
		j := rest[bestIdx]
		s.start(now, j)
		out = append(out, j)
		if bestUsesExtra {
			s.extra -= j.Width
		}
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
	}
	for _, j := range rest {
		if j.Width > s.free && j.Width < s.memo.blockedW {
			s.memo.blockedW = j.Width
		}
	}
	oldLen := len(s.queue)
	q := append(s.queue[:1], rest...)
	s.queue = clearTail(q[:oldLen], len(q))
	s.finishPass(now, true)
	return out
}

// finishPass records the pass's conclusion in the memo. A blocked queue
// under a time-invariant policy stays blocked until an event arrives —
// free capacity cannot grow, the shadow cannot move, and the by-shadow
// window only narrows as now advances — so the time-trigger bound is
// "never".
func (s *EASY) finishPass(now int64, blocked bool) {
	s.blocked = blocked
	s.cachedHead = nil
	if blocked {
		s.cachedHead = s.queue[0]
	}
	s.endPass(now, noWake)
}

// removeJob deletes j from q in place, preserving order and clearing the
// vacated slot.
func removeJob(q []*job.Job, j *job.Job) []*job.Job {
	for i, e := range q {
		if e == j {
			copy(q[i:], q[i+1:])
			return clearTail(q, len(q)-1)
		}
	}
	return q
}

// prefer reports whether candidate a beats b under the configured backfill
// order (ties keep the earlier — higher-priority — candidate).
func (s *EASY) prefer(a, b *job.Job) bool {
	switch s.order {
	case BestFit:
		return a.Width > b.Width
	case ShortestFit:
		return a.Estimate < b.Estimate
	default:
		return false
	}
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
