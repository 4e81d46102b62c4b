package sched

import (
	"fmt"

	"repro/internal/job"
)

// DepthK is lookahead-k backfilling: at every scheduling event the first K
// jobs of the priority-ordered queue receive reservations on a freshly
// rebuilt availability profile, and the remaining jobs backfill wherever
// they fit right now without disturbing those reservations.
//
// K interpolates between the paper's two subjects: K=1 is exactly
// aggressive (EASY) backfilling — only the head is protected — and K→∞
// protects every queued job like conservative backfilling does (though
// without conservative's *persistent* guarantees: reservations are
// recomputed from scratch each event, so a job's planned start can move
// later as higher-priority work arrives). The K knob is the ablation for
// how much reservation "roofing" costs, the design dimension DESIGN.md
// calls out.
//
// Passes are incremental (DESIGN.md §15): the end-of-pass plan profile is
// kept, and an arrival that sorts behind the last protected job extends the
// plan in place — probed against the cached profile exactly as the full
// rebuild would probe it — instead of replanning the whole queue.
type DepthK struct {
	lifecycle
	procs   int
	k       int
	running []runInfo

	// scratch is the replan profile rebuilt by every full Launch; reusing
	// one profile keeps the per-event rebuild allocation-free once its
	// backing array has grown to the plan's working size. Between passes it
	// holds the end-of-pass plan the incremental path extends.
	scratch *Profile

	// lastProtected is the lowest-priority job holding a plan reservation
	// after the last pass (nil when none); an arrival sorting ahead of it
	// changes the protected set and forces a replan. protected is how many
	// plan reservations that pass granted.
	lastProtected *job.Job
	protected     int
}

// NewDepthK returns a lookahead-k backfilling scheduler. It panics if
// procs < 1, pol is nil, or k < 1.
func NewDepthK(procs int, pol Policy, k int) *DepthK {
	if k < 1 {
		panic(fmt.Sprintf("sched: NewDepthK with depth %d", k))
	}
	return &DepthK{lifecycle: newLifecycle("NewDepthK", procs, pol, true), procs: procs, k: k}
}

// Name returns e.g. "DepthK(FCFS,k=4)".
func (s *DepthK) Name() string { return fmt.Sprintf("DepthK(%s,k=%d)", s.pol.Name(), s.k) }

// Complete forgets the running record. Freed capacity moves every plan
// slot, so the memo is invalidated and the next pass replans.
func (s *DepthK) Complete(_ int64, j *job.Job) {
	s.memo.invalidate()
	var ok bool
	if s.running, ok = removeRunner(s.running, j.ID); !ok {
		panic(fmt.Sprintf("sched: completion for unknown %v", j))
	}
}

// Launch rebuilds the short-horizon plan: running jobs occupy the profile
// through their estimates, the first K queued jobs reserve their earliest
// slots in priority order (starting immediately when that slot is now),
// and the rest backfill greedily. Futile passes are skipped via the memo;
// arrivals sorting behind the last protected job extend the cached plan
// instead of replanning.
func (s *DepthK) Launch(now int64) []*job.Job {
	if s.memo.canSkip(now) {
		return nil
	}
	if out, ok := s.launchIncremental(now); ok {
		return out
	}
	return s.launchFull(now)
}

// launchIncremental extends the cached plan with the arrivals since the
// last pass. It applies only when every new job sorts behind the last
// protected job — then the replanned first-K set and all existing plan
// slots are provably identical, and each new job lands exactly where the
// full rebuild would place it: started if its earliest slot is now,
// protected if the plan still has reservation depth to grant, unprotected
// otherwise.
func (s *DepthK) launchIncremental(now int64) ([]*job.Job, bool) {
	if !s.memo.arrivalsOnly() || now >= s.memo.nextAt || s.scratch == nil {
		return nil, false
	}
	for _, j := range s.new {
		if s.lastProtected != nil && s.pol.Less(j, s.lastProtected, now) {
			return nil, false // the arrival outranks a protected job: replan
		}
	}
	sortQueue(s.new, s.pol, now)
	nextAt := s.memo.nextAt
	var out []*job.Job
	for _, j := range s.new {
		start := s.scratch.FindStart(now, j.Estimate, j.Width)
		switch {
		case start == now:
			s.scratch.Reserve(now, j.Estimate, j.Width)
			s.running = append(s.running, runInfo{j: j, start: now, estEnd: now + j.Estimate})
			s.queue = removeJob(s.queue, j)
			out = append(out, j)
		case s.protected < s.k:
			// A pass that ends under depth K protected its whole queue, so
			// a job sorting after lastProtected is next in line for a slot.
			s.scratch.Reserve(start, j.Estimate, j.Width)
			s.protected++
			s.lastProtected = j
			nextAt = minInt64(nextAt, start)
		default:
			nextAt = minInt64(nextAt, start)
		}
	}
	s.endPass(now, nextAt)
	return out, true
}

// launchFull is the unconditional replan pass.
func (s *DepthK) launchFull(now int64) []*job.Job {
	s.resort(now)

	if s.scratch == nil {
		s.scratch = NewProfile(s.procs)
	} else {
		s.scratch.Reset()
	}
	p := s.scratch
	for _, r := range s.running {
		if r.estEnd > now {
			p.Reserve(now, r.estEnd-now, r.j.Width)
		}
	}

	var out []*job.Job
	nextAt := int64(noWake)
	kept := s.queue[:0]
	s.protected = 0
	s.lastProtected = nil
	for _, j := range s.queue {
		start := p.FindStart(now, j.Estimate, j.Width)
		switch {
		case start == now:
			p.Reserve(now, j.Estimate, j.Width)
			s.running = append(s.running, runInfo{j: j, start: now, estEnd: now + j.Estimate})
			out = append(out, j)
		case s.protected < s.k:
			// Protected: hold the slot so lower-priority jobs cannot
			// delay it.
			p.Reserve(start, j.Estimate, j.Width)
			s.protected++
			s.lastProtected = j
			nextAt = minInt64(nextAt, start)
			kept = append(kept, j)
		default:
			// Unprotected: stays queued without a reservation. Its probe is
			// a safe lower bound on when it could first act (reservations
			// made later in the pass only push it later).
			nextAt = minInt64(nextAt, start)
			kept = append(kept, j)
		}
	}
	s.queue = clearTail(s.queue, len(kept))
	s.endPass(now, nextAt)
	return out
}
