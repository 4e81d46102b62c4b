package sched

import (
	"fmt"
	"strconv"

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
	running []runInfo // in shadow order (insertRunner), as resetRunning needs

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
func (s *DepthK) Name() string { return "DepthK(" + s.pol.Name() + ",k=" + strconv.Itoa(s.k) + ")" }

// WorkCounts reports the scheduler's work so far, its plan profile's
// included.
func (s *DepthK) WorkCounts() WorkCounts {
	c := s.memo.counts
	if s.scratch != nil {
		c.addProfile(s.scratch)
	}
	return c
}

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
		s.memo.counts.Settled++
		return s.passStarts(out)
	}
	s.memo.counts.Full++
	return s.passStarts(s.launchFull(now))
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
	out := s.startList()
	for _, j := range s.new {
		// A pass that ends under depth K protected its whole queue, so a
		// job sorting after lastProtected is next in line for a slot.
		var started bool
		if started, nextAt = s.place(now, j, nextAt); started {
			s.queue = removeJob(s.queue, j)
			out = append(out, j)
		}
	}
	s.endPass(now, nextAt)
	return out, true
}

// place plans j, the next job in priority order, and returns nextAt
// lowered by when it could first act. It starts j when j fits now;
// otherwise, while the plan has depth to grant, j holds its earliest slot
// so lower-priority jobs cannot delay it. Past depth K, j stays without
// one and is not searched for: the plan's next step after now bounds its
// earliest slot from below (reservations made later in the pass only push
// that slot later), and the step is a runner's estimated end, whose
// completion replans anyway, or a protected start already in nextAt.
func (s *DepthK) place(now int64, j *job.Job, nextAt int64) (started bool, _ int64) {
	p := s.scratch
	if s.protected >= s.k {
		if fits, next := p.fitsNow(now, j.Estimate, j.Width); !fits {
			return false, min(nextAt, next)
		}
	} else if start := p.FindStart(now, j.Estimate, j.Width); start > now {
		p.Reserve(start, j.Estimate, j.Width)
		s.protected++
		s.lastProtected = j
		return false, min(nextAt, start)
	}
	p.Reserve(now, j.Estimate, j.Width)
	s.running = insertRunner(s.running, runInfo{j: j, start: now, estEnd: now + j.Estimate})
	return true, nextAt
}

// launchFull is the unconditional replan pass.
func (s *DepthK) launchFull(now int64) []*job.Job {
	s.resort(now)

	if s.scratch == nil {
		s.scratch = NewProfile(s.procs)
	}
	s.scratch.resetRunning(now, s.running)

	out := s.startList()
	nextAt := int64(noWake)
	kept := s.queue[:0]
	s.protected = 0
	s.lastProtected = nil
	for _, j := range s.queue {
		var started bool
		if started, nextAt = s.place(now, j, nextAt); started {
			out = append(out, j)
		} else {
			kept = append(kept, j)
		}
	}
	s.queue = clearTail(s.queue, len(kept))
	s.endPass(now, nextAt)
	return out
}
