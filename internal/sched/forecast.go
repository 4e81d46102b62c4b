package sched

import (
	"slices"

	"repro/internal/job"
)

// RunningSlot describes one running job for start-time forecasting: the
// processors it holds and the instant its estimate guarantees them back.
type RunningSlot struct {
	Width  int
	EstEnd int64
}

// startHint records one placement of a dry-run: when a job of width w and
// estimate d was placed, no start before s fitted it.
type startHint struct {
	w    int
	d, s int64
}

// within reports whether the hint's job is no wider than w and no longer
// than d. One branch, not two that each mispredict (a sixth of a dry-run's
// time): the OR of the two differences is negative exactly when either is.
func (e startHint) within(w int, d int64) bool { return int64(w-e.w)|(d-e.d) >= 0 }

// startHints is the dominance bound of one dry-run. Within a dry-run the
// profile only loses capacity, so a window that fits width w' ≥ w for d' ≥ d
// now would have fitted (w, d) when that job was placed at its earliest
// start s: every later job at least as wide and as long starts at or after
// s, and FindStart from s returns what FindStart from now would without
// rescanning the points already proven full. Hints are kept in order of
// start, and a new hint prunes the ones it dominates among the hintWindow
// before it (a few dozen survive for a queue of hundreds). A dominated hint
// left further back is still a valid bound, and never the latest one that
// applies, so bound answers as it would over a fully pruned list.
type startHints []startHint

// hintWindow is how many hints record looks back over, from a new hint's
// place, for hints it dominates.
const hintWindow = 16

// bound returns the latest recorded start that a job of width w and
// estimate d cannot precede, or now when no hint applies.
func (h startHints) bound(now int64, w int, d int64) int64 {
	for i := len(h) - 1; i >= 0 && h[i].s > now; i-- {
		if h[i].within(w, d) {
			return h[i].s
		}
	}
	return now
}

// record notes that (w, d), whose bound was from, was placed at s. A start
// equal to the bound teaches nothing new; otherwise the hint goes in by its
// start, after the last hint that starts no later, and those among the
// hintWindow before it that it makes redundant — no later, no narrower, no
// shorter — are overwritten in one pass and give way to it in one copy.
func (h *startHints) record(w int, d, s, from int64) {
	if s == from {
		return
	}
	hs, n := *h, startHint{w, d, s}
	k := len(hs)
	for k > 0 && hs[k-1].s > s {
		k--
	}
	keep := max(k-hintWindow, 0)
	for m := keep; m < k; m++ {
		if e := hs[m]; !n.within(e.w, e.d) {
			hs[keep] = e
			keep++
		}
	}
	*h = slices.Replace(hs, keep, k, n)
}

// ForecastSeed is the state of one conservative dry-run — the schedule built
// so far, the policy-last job placed into it and the start hints — which is
// also what extending it needs. A caller that retains the seed alongside the
// predictions can add later arrivals via ExtendForecast instead of re-running
// the dry-run over the whole queue — the O(queue) term the serving layer's
// write path removes (PERFORMANCE.md §6). The profile inside a seed is owned
// by the seed and is mutated by ExtendForecast, so a seed must be consumed
// at most once.
type ForecastSeed struct {
	profile *Profile
	tail    *job.Job
	hints   startHints
}

// dryRun builds the conservative schedule in a fresh seed: running jobs hold
// their processors until their estimated ends, then every queued job, in
// policy order, is placed at the earliest hole that fits its estimate and
// width, and the hole is reserved before the next job is placed.
func (s *ForecastSeed) dryRun(now int64, running []RunningSlot, queued []*job.Job, pol Policy, resv map[int]int64, put func(id int, start int64)) {
	for _, r := range running {
		if r.EstEnd > now && r.Width > 0 {
			s.profile.Reserve(now, r.EstEnd-now, r.Width)
		}
	}
	s.place(now, SortedByPolicy(queued, pol, now), resv, put)
}

// place adds jobs, already in policy order, to the seed's schedule and hands
// put each prediction: the scheduler-held reservation where resv has one (a
// guarantee, where the dry-run is an estimate), the placement otherwise, and
// never an instant before now.
func (s *ForecastSeed) place(now int64, ordered []*job.Job, resv map[int]int64, put func(id int, start int64)) {
	for _, j := range ordered {
		from := s.hints.bound(now, j.Width, j.Estimate)
		st, at := s.profile.findStart(from, j.Estimate, j.Width)
		s.profile.adjust(at, st, j.Estimate, -j.Width)
		s.hints.record(j.Width, j.Estimate, st, from)
		if t, ok := resv[j.ID]; ok {
			st = t
		}
		if st < now {
			st = now
		}
		put(j.ID, st)
		s.tail = j
	}
}

// Reservist is the optional scheduler capability of reporting the
// reservation (guaranteed start) it currently holds for a queued job.
// Conservative and slack-based schedulers implement it; the serving layer
// prefers a real reservation over a dry-run placement when available.
type Reservist interface {
	Reservation(id int) (int64, bool)
}

// Reservations captures the reservations scheduler s holds for the queued
// jobs, or nil when s is not a Reservist. The returned map is an immutable
// snapshot: callers may consult it from other goroutines long after the
// scheduler has moved on, which is how the serving layer separates the
// cheap on-loop capture from the off-loop dry-run.
func Reservations(s any, queued []*job.Job) map[int]int64 {
	r, ok := s.(Reservist)
	if !ok {
		return nil
	}
	var out map[int]int64
	for _, j := range queued {
		if t, ok := r.Reservation(j.ID); ok {
			if out == nil {
				out = make(map[int]int64, len(queued))
			}
			out[j.ID] = t
		}
	}
	return out
}

// ForecastFromState predicts a start time for every queued job — the
// feature production batch schedulers expose as "showstart" (Maui/Moab) or
// "squeue --start" (Slurm) — from an explicit state capture (machine size,
// clock, running slots, queue and pre-captured reservations) without
// touching any scheduler: a conservative backfill schedule dry-run over the
// queue in priority order (see ForecastSeed), with scheduler-held
// reservations overriding the placements.
//
// The result is exact for reservation-based schedulers with exact
// estimates, and an upper-bound-flavoured estimate for aggressive ones
// (EASY may start a job earlier via backfilling; early completions compress
// every prediction forward). That is the same fidelity real showstart
// implementations offer, because the future workload is unknowable either
// way.
//
// Because every input is a snapshot, it is safe to call from any goroutine.
// queued is not modified; the returned map is keyed by job ID.
func ForecastFromState(procs int, now int64, running []RunningSlot, queued []*job.Job, pol Policy, resv map[int]int64) map[int]int64 {
	out := make(map[int]int64, len(queued))
	ForecastFromStateSeeded(procs, now, running, queued, pol, resv, func(id int, start int64) { out[id] = start })
	return out
}

// ForecastFromStateSeeded is ForecastFromState writing each prediction to
// put, in policy order, instead of collecting a map, and returning the
// dry-run's seed for incremental extension. The seed is the caller's, its
// profile sized for the schedule it holds.
func ForecastFromStateSeeded(procs int, now int64, running []RunningSlot, queued []*job.Job, pol Policy, resv map[int]int64, put func(id int, start int64)) *ForecastSeed {
	p := NewProfile(procs)
	p.points = slices.Grow(p.points, len(running)+len(queued)+1)
	// A quarter of the queue: 72–75 hints survive an FCFS dry-run of 512.
	s := &ForecastSeed{profile: p, hints: make(startHints, 0, len(queued)/4)}
	s.dryRun(now, running, queued, pol, resv, put)
	return s
}

// ExtendForecast extends a seeded forecast with newly arrived jobs, avoiding
// the full dry-run when every arrival sorts at or after the seed's tail
// under pol at now (always true for arrival-ordered policies like FCFS; the
// stable sort puts an equal-keyed later arrival after the tail). now must be
// the instant the seed was built at, and resv the reservation capture for
// the extended state. On success the seed's profile has the new jobs placed,
// the seed's tail is advanced, and put has received predictions for exactly
// the new jobs — the caller overlays them on the predictions the seed was
// built with, which stay untouched so snapshots of the older version keep
// their forecast. It returns false, with the seed untouched and put never
// called, when some arrival sorts before the tail: the extension would
// mispredict, and the caller must fall back to a full dry-run.
func ExtendForecast(seed *ForecastSeed, now int64, newJobs []*job.Job, pol Policy, resv map[int]int64, put func(id int, start int64)) bool {
	for _, j := range newJobs {
		if seed.tail != nil && policyCmp(pol, j, seed.tail, now) < 0 {
			return false
		}
	}
	seed.place(now, SortedByPolicy(newJobs, pol, now), resv, put)
	return true
}

// SortedByPolicy returns jobs ordered by the policy at now — the order a
// scheduler would serve them in, which is also the order status endpoints
// display: jobs itself when it is already in order (the common case —
// every scheduler but SlackBased keeps its queue sorted), a sorted copy
// otherwise. The input is never modified, and the result must not be.
func SortedByPolicy(jobs []*job.Job, pol Policy, now int64) []*job.Job {
	if queueSorted(jobs, pol, now) {
		return jobs
	}
	q := append([]*job.Job(nil), jobs...)
	sortQueue(q, pol, now)
	return q
}
