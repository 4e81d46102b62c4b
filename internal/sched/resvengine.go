package sched

import (
	"fmt"

	"repro/internal/job"
)

// resvEngine is backfilling with persistent reservations, the one mechanism
// under Conservative, SlackBased and Selective. A queued job either holds a
// window — a start time reserved on the availability profile that later
// events may pull earlier but, beyond its slack, never push back — or holds
// none and backfills wherever it fits right now without disturbing the
// windows of others. The paper's whole comparison is which queued jobs hold
// one, so the three schedulers are this engine under three answers to when,
// how far and whether, fixed at construction; everything else the engine
// does differently between them it derives from its own state (which jobs
// are in resv, whether guarantee exists), never from knowing which shell it
// sits under.
type resvEngine struct {
	lifecycle

	// When a job is granted its window: as it arrives, or — until then it
	// backfills — once its expansion factor reaches threshold, which with
	// adaptive set is instead the running mean of the expansion factors of
	// all jobs at their start times (at least 1), so that it tracks the
	// load the machine is actually delivering.
	onArrival bool
	threshold float64
	adaptive  bool
	// How far a new window may push one existing window back: slack × the
	// pushed job's estimate past the start it was first granted. 0 = never.
	slack float64
	// Whether the holes early completions leave are compressed.
	noCompress bool

	profile *Profile
	resv    resvTable // queued job ID -> start of its window
	// guarantee is queued job ID -> latest start its window may be pushed
	// to. Only the shell that publishes guarantees sets guarantees; under
	// the others the table stays empty.
	guarantee  job.Table[int64]
	guarantees bool
	// running is running job ID -> start; its window ends at start +
	// Estimate.
	running job.Table[int64]

	// sumXF and nStarted feed the adaptive threshold.
	sumXF    float64
	nStarted int64

	// holes records whether free capacity has appeared in the profile (an
	// early-completion release, a cancellation, a displacement that
	// rearranged windows, or a compression pass that actually moved a job,
	// which frees the mover's old slot) since the last compression pass.
	// While holes is false a compression pass is provably the identity —
	// grants and exact-time launches only consume capacity, and FindStart at
	// a later now can never return an earlier slot from an unchanged profile
	// — so Complete skips the whole compression pass.
	holes bool

	// violations collects internal invariant breaches (never expected);
	// tests read them via Violations.
	violations []string
}

// newResvEngine returns an engine with an empty machine. The memo it holds
// (DESIGN.md §15) skips provably futile passes: memo.nextAt is the minimum
// over granted windows' starts, the instants their expansion factors cross
// the threshold and, for each un-granted job that does not fit now, the
// profile's next step after now — no start before it fits, so it bounds the
// job's backfill slot from below without a search for the slot. Jobs
// granted on arrival never need the arrivals buffer, so only the other mode
// keeps one.
func newResvEngine(ctor string, procs int, pol Policy, onArrival bool) resvEngine {
	return resvEngine{
		lifecycle: newLifecycle(ctor, procs, pol, !onArrival),
		onArrival: onArrival,
		profile:   NewProfile(procs),
	}
}

// Violations returns internal invariant breaches detected so far (always
// empty unless there is a bug).
func (s *resvEngine) Violations() []string {
	return append([]string(nil), s.violations...)
}

// Presize implements sim.Presizer: the job-keyed tables a run fills are
// laid out once for its jobs. The guarantee table is filled only under the
// shell that publishes guarantees.
func (s *resvEngine) Presize(jobs []*job.Job) {
	s.resv.Presize(jobs)
	s.running.Presize(jobs)
	if s.guarantees {
		s.guarantee.Presize(jobs)
	}
}

// WorkCounts reports the engine's work so far, its profile's included.
func (s *resvEngine) WorkCounts() WorkCounts {
	c := s.memo.counts
	c.addProfile(s.profile)
	return c
}

// ungranted reports whether some queued job holds no window. Such a job
// reads the profile directly at every pass, so more events matter to the
// memo while one exists than when launches are gated on resv alone.
func (s *resvEngine) ungranted() bool { return len(s.queue) > s.resv.Len() }

// promoteAt is the expansion factor at which an un-granted job is granted
// its window right now.
func (s *resvEngine) promoteAt() float64 {
	if !s.adaptive {
		return s.threshold
	}
	if s.nStarted == 0 {
		return 1
	}
	t := s.sumXF / float64(s.nStarted)
	if t < 1 {
		t = 1
	}
	return t
}

// Arrive queues the job, granting its window first when that is the rule.
func (s *resvEngine) Arrive(now int64, j *job.Job) {
	if s.onArrival {
		s.profile.Trim(now)
		s.grant(now, j)
	}
	s.lifecycle.Arrive(now, j)
}

// grant reserves j's window: at the earliest slot that disturbs nobody or,
// when slack allows and it is earlier, at a slot freed by displacing a
// single existing window whose owner can be re-placed within its guarantee.
// Displacement is pairwise — all other windows stay fixed, so the
// feasibility checks are exact and the scheduler stays free of
// list-scheduling anomalies. Every start written folds into memo.nextAt, so
// futile-pass skipping stays exact: a displaced victim only moved later,
// and its earlier bound kept by a previous pass remains a safe lower bound.
func (s *resvEngine) grant(now int64, j *job.Job) {
	start, at, victim, victimStart := s.displacement(now, j)
	if victim != nil {
		// The victim's new window was found with j's in place: both fit.
		old, _ := s.resv.Get(victim.ID)
		s.profile.move(s.profile.indexAt(victimStart), old, victimStart, victim.Estimate, victim.Width)
		s.profile.Reserve(start, j.Estimate, j.Width)
		s.resv.Set(victim.ID, victimStart)
		s.memo.nextAt = min(s.memo.nextAt, victimStart)
		// Displacement rearranged existing windows, so parts of the
		// victim's old slot may now be free.
		s.holes = true
	} else {
		s.profile.adjust(at, start, j.Estimate, -j.Width)
	}
	s.resv.Set(j.ID, start)
	if s.guarantees {
		s.guarantee.Set(j.ID, start+int64(s.slack*float64(j.Estimate)))
	}
	s.memo.nextAt = min(s.memo.nextAt, start)
}

// displacement chooses grant's window for j: start, and the victim whose
// window moves to victimStart to make room, or nil — then at is the index
// of the step holding start. Its probes leave the profile untouched: where j
// would start with k's window released is start or a slot overlapping that
// window (one ending by old sees the profile that answered start), and only
// a slot before start asks where k would then land. A window starting at or
// after start + max(j.Estimate, 1) is not tried: no slot before start fits
// j, so each lacks capacity at some instant before start + j.Estimate,
// where releasing that window frees nothing.
func (s *resvEngine) displacement(now int64, j *job.Job) (start int64, at int, victim *job.Job, victimStart int64) {
	start, at = s.profile.findStart(now, j.Estimate, j.Width)
	if !(s.slack > 0 && start > now) {
		return start, at, nil, 0
	}
	for _, k := range s.queue {
		old, ok := s.resv.Get(k.ID)
		if !ok || old <= now || old >= start+max(j.Estimate, 1) {
			continue // no window to displace, startable now (Launch owns it), or too late to help
		}
		s.memo.counts.Candidates++
		freed := [2]edit{{old, k.Width}, {old + k.Estimate, -k.Width}}
		from := max(now, old-max(j.Estimate, 1)+1)
		cand := s.profile.startWith(from, j.Estimate, j.Width, freed[:]...)
		if cand >= start {
			continue
		}
		// Where would k land if j takes this slot?
		s.memo.counts.SecondProbes++
		kNew := s.profile.startWith(now, k.Estimate, k.Width, freed[0], freed[1], edit{cand, -j.Width}, edit{cand + j.Estimate, j.Width})
		if g, _ := s.guarantee.Get(k.ID); kNew <= g {
			start, victim, victimStart = cand, k, kNew
		}
		if start == now {
			break
		}
	}
	return start, at, victim, victimStart
}

// release gives back the part of j's window [start, start+Estimate) that
// lies after now, and reports whether there was any.
func (s *resvEngine) release(now, start int64, j *job.Job) bool {
	from := start
	if from < now {
		from = now
	}
	end := start + j.Estimate
	if end <= from {
		return false
	}
	s.profile.Release(from, end-from, j.Width)
	s.holes = true
	return true
}

// Complete releases the unused tail of the job's planned window (when it
// finished before its estimate) and compresses the queue into it.
func (s *resvEngine) Complete(now int64, j *job.Job) {
	start, ok := s.running.Get(j.ID)
	if !ok {
		panic(fmt.Sprintf("sched: completion for unknown %v", j))
	}
	s.running.Drop(j.ID)
	released := s.release(now, start, j)
	s.profile.Trim(now)
	moved := !s.noCompress && s.holes && s.compress(now)
	// A granted job launches when resv says so, and a completion changes
	// resv only through a compression pass that moved a window; a job
	// without one launches when the profile has room, which any release
	// changes.
	if moved || released && s.ungranted() {
		s.memo.invalidate()
	}
}

// compress re-places queued windows in priority order and reports whether
// any moved. A window only ever moves earlier: its old slot remains
// feasible by construction, so the earlier start can never be later
// (guarded anyway), and the move is one profile edit from the step the
// probe found. A pass that moves at least one job leaves holes set,
// because the mover's vacated slot could let an earlier-processed job move
// on the next pass; a pass that moves nothing clears it, making the next
// pass skippable until capacity is freed again.
func (s *resvEngine) compress(now int64) bool {
	s.resort(now)
	s.memo.counts.Compressions++
	moved := false
	for _, j := range s.queue {
		old, granted := s.resv.Get(j.ID)
		if !granted || old <= now {
			continue // nothing to move, or already startable: Launch will take it
		}
		s.memo.counts.EarlierStarts++
		start, at := s.profile.earlierStart(now, old, j.Estimate, j.Width)
		if start >= old {
			continue // cannot move; the profile was never touched
		}
		moved = true
		s.memo.counts.Moves++
		s.profile.move(at, old, start, j.Estimate, j.Width)
		s.resv.Set(j.ID, start)
	}
	s.holes = moved
	return moved
}

// Launch starts every granted job whose window has arrived and backfills
// the others anywhere they fit right now. A pass before memo.nextAt
// provably starts nothing; one whose only news is arrivals is settled by
// looking at those alone.
func (s *resvEngine) Launch(now int64) []*job.Job {
	if s.memo.canSkip(now) {
		return nil
	}
	if s.memo.arrivalsOnly() && now < s.memo.nextAt {
		// No previously queued job can act yet, and the queue is already in
		// policy order from insertion.
		if nextAt, futile := s.probeArrivals(now); futile {
			s.memo.counts.Settled++
			s.endPass(now, nextAt)
			return nil
		}
	}
	s.memo.counts.Full++
	return s.passStarts(s.launchFull(now))
}

// probeArrivals probes each un-granted arrival since the last pass exactly
// as the full pass would: if it is due its window or could backfill right
// now the full pass must run; otherwise the profile's next step and its
// threshold-crossing time fold into the bound returned. Arrivals granted on
// entry are not buffered: grant already folded their windows in.
func (s *resvEngine) probeArrivals(now int64) (nextAt int64, futile bool) {
	nextAt = s.memo.nextAt
	if len(s.new) == 0 {
		return nextAt, true
	}
	threshold := s.promoteAt()
	s.profile.Trim(now)
	for _, j := range s.new {
		if XFactor(j, now) >= threshold {
			return 0, false // a grant is due: windows would move
		}
		fits, next := s.profile.fitsNow(now, j.Estimate, j.Width)
		if fits {
			return 0, false // the arrival can backfill immediately
		}
		nextAt = min(nextAt, xfCrossTime(j, threshold, now), next)
	}
	return nextAt, true
}

// launchFull is the unconditional pass.
func (s *resvEngine) launchFull(now int64) []*job.Job {
	s.resort(now)
	if s.ungranted() {
		// Grant windows to the jobs whose expansion factor has crossed the
		// threshold, in priority order so the neediest pick their slots
		// first.
		s.profile.Trim(now)
		threshold := s.promoteAt()
		for _, j := range s.queue {
			if _, granted := s.resv.Get(j.ID); !granted && XFactor(j, now) >= threshold {
				s.grant(now, j)
			}
		}
	}

	out := s.startList()
	nextAt := int64(noWake)
	kept := s.queue[:0]
	for _, j := range s.queue {
		start, granted := s.resv.Get(j.ID)
		switch {
		case !granted:
			if s.onArrival {
				panic(fmt.Sprintf("sched: queued %v was never granted a window", j))
			}
			// Windows granted later in this same pass can only push the
			// job's feasible slot later, and the profile's next step at its
			// queue position bounds that slot from below.
			fits, next := s.profile.fitsNow(now, j.Estimate, j.Width)
			if !fits {
				nextAt = min(nextAt, next)
				kept = append(kept, j)
				continue
			}
			s.profile.Reserve(now, j.Estimate, j.Width)
		case start > now:
			nextAt = min(nextAt, start)
			kept = append(kept, j)
			continue
		default:
			s.claim(now, start, j)
		}
		s.running.Set(j.ID, now)
		if s.adaptive {
			s.sumXF += XFactor(j, now)
			s.nStarted++
		}
		out = append(out, j)
	}
	s.queue = clearTail(s.queue, len(kept))

	if s.ungranted() {
		// The adaptive threshold moves with every start, so the pass may
		// end below some waiter's expansion factor — a grant is due in a
		// further pass at this same instant, and the memo must not certify
		// a fixpoint.
		threshold := s.promoteAt()
		for _, j := range s.queue {
			if _, granted := s.resv.Get(j.ID); granted {
				continue
			}
			if XFactor(j, now) >= threshold {
				s.clearNew()
				s.memo.invalidate()
				return out
			}
			nextAt = min(nextAt, xfCrossTime(j, threshold, now))
		}
	}
	s.endPass(now, nextAt)
	return out
}

// claim turns j's window, due at start <= now, into its running slot.
func (s *resvEngine) claim(now, start int64, j *job.Job) {
	if g, ok := s.guarantee.Get(j.ID); ok && now > g {
		s.violations = append(s.violations,
			fmt.Sprintf("%v started at %d past its guarantee %d", j, now, g))
	}
	if start < now {
		// A window should always be claimed at its exact instant (every
		// resource release is a completion event that triggers compression,
		// and the no-compression ablation asks for a timer). Realign the
		// planned window defensively so the profile stays consistent, and
		// record the anomaly.
		s.violations = append(s.violations,
			fmt.Sprintf("%v launched at %d after its reservation %d", j, now, start))
		s.release(now, start, j)
		s.profile.Reserve(now, j.Estimate, j.Width)
		s.holes = true
	}
	s.resv.Drop(j.ID)
	s.guarantee.Drop(j.ID)
}
