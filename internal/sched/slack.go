package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/job"
)

// SlackBased implements slack-based backfilling in the spirit of Talby &
// Feitelson (IPPS 1999), the third backfilling family the paper cites:
// like conservative backfilling every job holds a reservation, but an
// arriving job may take a slot that *delays* existing reservations, as long
// as no job is pushed past its guarantee. A job's guarantee is fixed when
// it first receives a reservation:
//
//	guarantee = first reserved start + SlackFactor × estimate
//
// so SlackFactor 0 degenerates to conservative backfilling (nobody may be
// delayed at all) while larger factors let short new work squeeze in ahead,
// trading bounded per-job delay for better packing.
//
// Displacement is pairwise: the arrival may displace one existing
// reservation, re-placing the displaced job within its guarantee. All
// other windows stay fixed, which keeps the scheduler free of
// list-scheduling anomalies — a replanned-from-scratch variant can push
// jobs past their guarantees even when capacity only grew (Graham's
// anomaly), so reservations here are persistent exactly as in conservative
// backfilling, and early completions compress jobs one at a time.
type SlackBased struct {
	procs       int
	pol         Policy
	slackFactor float64

	profile   *Profile
	queue     []*job.Job
	resv      resvTable     // job ID -> reserved start
	guarantee map[int]int64 // job ID -> latest permitted start
	running   map[int]runInfo

	// holes mirrors Conservative.holes: compression passes run only after
	// capacity has been freed (early completion, cancellation, a
	// displacement that rearranged windows, or a pass that moved a job);
	// otherwise the pass is provably the identity and is skipped.
	holes bool

	violations []string

	// memo mirrors Conservative's: launches are gated purely on "reserved
	// start due", so passes before the earliest pending reservation are
	// skipped (DESIGN.md §15). Arrivals fold both their own reservation and
	// any displaced victim's new start into memo.nextAt.
	memo passMemo
}

// NewSlackBased returns a slack-based backfilling scheduler. It panics if
// procs < 1, pol is nil, or slackFactor < 0.
func NewSlackBased(procs int, pol Policy, slackFactor float64) *SlackBased {
	if procs < 1 {
		panic(fmt.Sprintf("sched: NewSlackBased with %d processors", procs))
	}
	if pol == nil {
		panic("sched: NewSlackBased with nil policy")
	}
	if slackFactor < 0 {
		panic(fmt.Sprintf("sched: NewSlackBased with slack factor %v", slackFactor))
	}
	return &SlackBased{
		procs:       procs,
		pol:         pol,
		slackFactor: slackFactor,
		profile:     NewProfile(procs),
		resv:        newResvTable(),
		guarantee:   make(map[int]int64),
		running:     make(map[int]runInfo),
		memo:        newPassMemo(pol),
	}
}

// Name returns e.g. "Slack(FCFS,s=1)".
func (s *SlackBased) Name() string {
	return fmt.Sprintf("Slack(%s,s=%g)", s.pol.Name(), s.slackFactor)
}

// Guarantee returns a queued job's latest permitted start.
func (s *SlackBased) Guarantee(id int) (int64, bool) {
	g, ok := s.guarantee[id]
	return g, ok
}

// Reservation returns a queued job's current reserved start.
func (s *SlackBased) Reservation(id int) (int64, bool) { return s.resv.get(id) }

// TrackReservationWrites switches on the reservation write log and returns
// its drain; see Conservative.TrackReservationWrites. A job's guarantee is
// written once, together with its first reservation, so the log of
// reservation writes covers it.
func (s *SlackBased) TrackReservationWrites() (drain func() []int) { return s.resv.track() }

// Violations returns internal invariant breaches detected so far.
func (s *SlackBased) Violations() []string {
	return append([]string(nil), s.violations...)
}

// Arrive reserves the arriving job either at the earliest slot that
// disturbs nobody (the conservative placement) or, when better, at a slot
// freed by displacing a single existing reservation whose owner can be
// re-placed within its guarantee.
func (s *SlackBased) Arrive(now int64, j *job.Job) {
	s.profile.Trim(now)

	bestStart := s.profile.FindStart(now, j.Estimate, j.Width)
	bestVictim := -1
	bestVictimStart := int64(0)

	if s.slackFactor > 0 && bestStart > now {
		// Try displacing each queued reservation in turn (windows of all
		// other jobs stay fixed, so feasibility checks are exact).
		for _, k := range s.queue {
			old, _ := s.resv.get(k.ID)
			if old <= now {
				continue // startable now; Launch owns it
			}
			s.profile.Release(old, k.Estimate, k.Width)
			cand := s.profile.FindStart(now, j.Estimate, j.Width)
			if cand < bestStart {
				// Where would k land if j takes this slot?
				s.profile.Reserve(cand, j.Estimate, j.Width)
				kNew := s.profile.FindStart(now, k.Estimate, k.Width)
				s.profile.Release(cand, j.Estimate, j.Width)
				if kNew <= s.guarantee[k.ID] {
					bestStart = cand
					bestVictim = k.ID
					bestVictimStart = kNew
				}
			}
			s.profile.Reserve(old, k.Estimate, k.Width)
			if bestStart == now {
				break
			}
		}
	}

	if bestVictim >= 0 {
		victim := s.findQueued(bestVictim)
		old, _ := s.resv.get(bestVictim)
		s.profile.Release(old, victim.Estimate, victim.Width)
		s.profile.Reserve(bestStart, j.Estimate, j.Width)
		s.profile.Reserve(bestVictimStart, victim.Estimate, victim.Width)
		s.resv.set(bestVictim, bestVictimStart)
		// Displacement rearranged existing windows, so parts of the
		// victim's old slot may now be free.
		s.holes = true
	} else {
		s.profile.Reserve(bestStart, j.Estimate, j.Width)
	}
	s.resv.set(j.ID, bestStart)
	slack := int64(s.slackFactor * float64(j.Estimate))
	s.guarantee[j.ID] = bestStart + slack
	s.memo.noteArrival()
	// The arrival's reservation bounds the next possible start; a displaced
	// victim only moved later, so folding its old (earlier) bound kept by a
	// previous pass remains a safe lower bound, and its new start is folded
	// too for exactness.
	s.memo.nextAt = minInt64(s.memo.nextAt, bestStart)
	if bestVictim >= 0 {
		s.memo.nextAt = minInt64(s.memo.nextAt, bestVictimStart)
	}
	if s.memo.timeInv {
		s.queue = orderedInsert(s.queue, j, s.pol, now)
		return
	}
	s.queue = append(s.queue, j)
}

// findQueued returns the queued job with the given ID.
func (s *SlackBased) findQueued(id int) *job.Job {
	for _, k := range s.queue {
		if k.ID == id {
			return k
		}
	}
	panic(fmt.Sprintf("sched: SlackBased lost queued job %d", id))
}

// Complete releases the unused tail of the finished job's window and
// compresses reservations in priority order, conservative-style: each job
// moves to the earliest start no later than its current reservation.
func (s *SlackBased) Complete(now int64, j *job.Job) {
	ri, ok := s.running[j.ID]
	if !ok {
		panic(fmt.Sprintf("sched: SlackBased completion for unknown %v", j))
	}
	delete(s.running, j.ID)
	if now < ri.estEnd {
		s.profile.Release(now, ri.estEnd-now, j.Width)
		s.holes = true
	}
	s.profile.Trim(now)
	if s.holes {
		s.compress(now)
		// As in Conservative: the reservation map is all Launch reads, and
		// compression is the only way a completion changes it.
		if s.holes {
			s.memo.invalidate()
		}
	}
}

// compress pulls reservations earlier in priority order, exactly as
// conservative backfilling does. A pass that moves a job keeps holes set
// (its vacated slot may enable further moves); a pass that moves nothing
// clears it.
func (s *SlackBased) compress(now int64) {
	sortQueue(s.queue, s.pol, now)
	moved := false
	for _, k := range s.queue {
		old, _ := s.resv.get(k.ID)
		if old <= now {
			continue
		}
		if !s.profile.anyAtLeastBefore(now, old, k.Width) {
			continue // no instant before old has room: the job cannot move
		}
		start := s.profile.EarlierStart(now, old, k.Estimate, k.Width)
		if start >= old {
			continue // cannot move; the profile was never touched
		}
		moved = true
		s.profile.Release(old, k.Estimate, k.Width)
		s.profile.Reserve(start, k.Estimate, k.Width)
		s.resv.set(k.ID, start)
	}
	s.holes = moved
}

// Launch starts every queued job whose reserved start has arrived. Passes
// before the earliest pending reservation are skipped via the memo.
func (s *SlackBased) Launch(now int64) []*job.Job {
	if s.memo.canSkip(now) {
		return nil
	}
	if s.memo.arrivalsOnly() && now < s.memo.nextAt {
		s.memo.completePass(now, s.memo.nextAt)
		return nil
	}
	sortQueue(s.queue, s.pol, now)
	var out []*job.Job
	nextAt := int64(noWake)
	kept := s.queue[:0]
	for _, j := range s.queue {
		start, _ := s.resv.get(j.ID)
		if start > now {
			nextAt = minInt64(nextAt, start)
			kept = append(kept, j)
			continue
		}
		if g := s.guarantee[j.ID]; now > g {
			s.violations = append(s.violations,
				fmt.Sprintf("%v started at %d past its guarantee %d", j, now, g))
		}
		if start < now {
			// Reservations are claimed at their exact instant (see the
			// conservative scheduler); realign defensively.
			s.violations = append(s.violations,
				fmt.Sprintf("%v launched at %d after its reservation %d", j, now, start))
			if rem := start + j.Estimate - now; rem > 0 {
				s.profile.Release(now, rem, j.Width)
			}
			s.profile.Reserve(now, j.Estimate, j.Width)
			s.holes = true
		}
		s.resv.drop(j.ID)
		delete(s.guarantee, j.ID)
		s.running[j.ID] = runInfo{j: j, start: now, estEnd: now + j.Estimate}
		out = append(out, j)
	}
	s.queue = clearTail(s.queue, len(kept))
	s.memo.completePass(now, nextAt)
	return out
}

// QueuedJobs returns the jobs still waiting, in priority order.
func (s *SlackBased) QueuedJobs() []*job.Job {
	out := append([]*job.Job(nil), s.queue...)
	slices.SortStableFunc(out, func(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// ProfilePoints reports the current size of the availability profile's
// step function (the benchmark ledger records its distribution per
// scheduler kind).
func (s *SlackBased) ProfilePoints() int { return s.profile.NumPoints() }
