package sched

import (
	"slices"
	"sync"

	"repro/internal/job"
)

// RunningSlot describes one running job for start-time forecasting: the
// processors it holds and the instant its estimate guarantees them back.
type RunningSlot struct {
	Width  int
	EstEnd int64
}

// scratchProfiles pools the dry-run profiles ShowStart builds its schedule
// in. A forecast is read-mostly work that serving layers may run on any
// goroutine, so the pool is the concurrency-safe way to reuse the backing
// arrays across forecasts instead of allocating a fresh profile per call.
var scratchProfiles sync.Pool

// getScratchProfile returns a reset profile for procs processors, reusing
// pooled storage when the machine size matches.
func getScratchProfile(procs int) *Profile {
	if v := scratchProfiles.Get(); v != nil {
		p := v.(*Profile)
		if p.Procs() == procs {
			p.Reset()
			return p
		}
	}
	return NewProfile(procs)
}

func putScratchProfile(p *Profile) { scratchProfiles.Put(p) }

// ShowStart predicts a start time for every queued job — the feature
// production batch schedulers expose as "showstart" (Maui/Moab) or
// "squeue --start" (Slurm). The forecast snapshots the machine (running
// jobs occupy their processors until their estimated ends) and dry-runs a
// conservative backfill schedule over the queue in priority order: each job
// is placed at the earliest hole that fits its estimate and width, and the
// hole is reserved before the next job is placed.
//
// The result is exact for reservation-based schedulers with exact
// estimates, and an upper-bound-flavoured estimate for aggressive ones
// (EASY may start a job earlier via backfilling; early completions compress
// every prediction forward). That is the same fidelity real showstart
// implementations offer, because the future workload is unknowable either
// way.
//
// queued is not modified; the returned map is keyed by job ID. The dry-run
// profile comes from an internal pool, so steady-state forecasting does not
// allocate a profile per call.
func ShowStart(procs int, now int64, running []RunningSlot, queued []*job.Job, pol Policy) map[int]int64 {
	p := getScratchProfile(procs)
	defer putScratchProfile(p)
	return showStartInto(p, now, running, queued, pol)
}

// showStartInto runs the ShowStart dry-run in the caller-supplied profile,
// which must be freshly reset and sized to the machine.
func showStartInto(p *Profile, now int64, running []RunningSlot, queued []*job.Job, pol Policy) map[int]int64 {
	out, _ := showStartSeeded(p, now, running, queued, pol)
	return out
}

// showStartSeeded is showStartInto plus the dry-run's tail: the policy-last
// queued job placed, which an incremental extension needs to verify that
// later arrivals really sort after everything already in the schedule.
func showStartSeeded(p *Profile, now int64, running []RunningSlot, queued []*job.Job, pol Policy) (map[int]int64, *job.Job) {
	for _, r := range running {
		if r.EstEnd > now && r.Width > 0 {
			p.Reserve(now, r.EstEnd-now, r.Width)
		}
	}
	q := append([]*job.Job(nil), queued...)
	sortQueue(q, pol, now)
	out := make(map[int]int64, len(q))
	var tail *job.Job
	for _, j := range q {
		st := p.FindStart(now, j.Estimate, j.Width)
		p.Reserve(st, j.Estimate, j.Width)
		out[j.ID] = st
		tail = j
	}
	return out, tail
}

// Reservist is the optional scheduler capability of reporting the
// reservation (guaranteed start) it currently holds for a queued job.
// Conservative and slack-based schedulers implement it; the serving layer
// prefers a real reservation over a ShowStart forecast when available.
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

// applyResvClamp post-processes a raw dry-run: scheduler-held reservations
// override the conservative placement (they are guarantees, the dry-run is
// an estimate), and no prediction may precede now.
func applyResvClamp(out map[int]int64, resv map[int]int64, now int64) {
	for id, t := range resv {
		if _, ok := out[id]; ok {
			out[id] = t
		}
	}
	for id, t := range out {
		if t < now {
			out[id] = now
		}
	}
}

// ForecastFromState is the pure form of Forecast: it predicts start times
// from an explicit state capture (machine size, clock, running slots, queue
// and pre-captured reservations) without touching any scheduler. Because
// every input is a snapshot, it is safe to call from any goroutine — the
// serving layer memoizes its result per state version.
func ForecastFromState(procs int, now int64, running []RunningSlot, queued []*job.Job, pol Policy, resv map[int]int64) map[int]int64 {
	out := ShowStart(procs, now, running, queued, pol)
	applyResvClamp(out, resv, now)
	return out
}

// ForecastSeed is the reusable end state of one ShowStart dry-run: the final
// conservative schedule and the policy-last job placed into it. A caller
// that retains the seed alongside the predictions can extend the forecast
// with later arrivals via ExtendForecast instead of re-running the dry-run
// over the whole queue — the O(queue) term the serving layer's write path
// removes (PERFORMANCE.md §6). The profile inside a seed is owned by the
// seed (never pooled) and is mutated by ExtendForecast, so a seed must be
// consumed at most once.
type ForecastSeed struct {
	profile *Profile
	tail    *job.Job
}

// ForecastFromStateSeeded is ForecastFromState plus the dry-run's seed for
// incremental extension.
func ForecastFromStateSeeded(procs int, now int64, running []RunningSlot, queued []*job.Job, pol Policy, resv map[int]int64) (map[int]int64, *ForecastSeed) {
	p := NewProfile(procs)
	out, tail := showStartSeeded(p, now, running, queued, pol)
	applyResvClamp(out, resv, now)
	return out, &ForecastSeed{profile: p, tail: tail}
}

// ExtendForecast extends a seeded forecast with newly arrived jobs, avoiding
// the full dry-run when every arrival sorts at or after the seed's tail
// under pol at now (always true for arrival-ordered policies like FCFS; the
// stable sort puts an equal-keyed later arrival after the tail). resv is the
// reservation capture for the extended state. On success the seed's profile
// has the new jobs placed, the seed's tail is advanced, and the returned
// delta holds predictions for exactly the new jobs — the caller overlays it
// on the predictions the seed was built with, which stay untouched so
// snapshots of the older version keep their forecast. ok is false, with the
// seed untouched, when some arrival sorts before the tail: the extension
// would mispredict, and the caller must fall back to a full dry-run.
func ExtendForecast(seed *ForecastSeed, now int64, newJobs []*job.Job, pol Policy, resv map[int]int64) (map[int]int64, bool) {
	for _, j := range newJobs {
		if seed.tail != nil && policyCmp(pol, j, seed.tail, now) < 0 {
			return nil, false
		}
	}
	sorted := SortedByPolicy(newJobs, pol, now)
	delta := make(map[int]int64, len(sorted))
	for _, j := range sorted {
		st := seed.profile.FindStart(now, j.Estimate, j.Width)
		seed.profile.Reserve(st, j.Estimate, j.Width)
		if t, ok := resv[j.ID]; ok {
			st = t
		}
		if st < now {
			st = now
		}
		delta[j.ID] = st
		seed.tail = j
	}
	return delta, true
}

// Forecast combines both prediction sources for one queue snapshot: the
// scheduler's own reservations where it holds them, and the ShowStart
// dry-run for everything else. Predictions never precede now.
func Forecast(s interface{ Name() string }, procs int, now int64, running []RunningSlot, queued []*job.Job, pol Policy) map[int]int64 {
	return ForecastFromState(procs, now, running, queued, pol, Reservations(s, queued))
}

// SortedByPolicy returns a copy of jobs ordered by the policy at now —
// the order a scheduler would serve them in, which is also the order
// status endpoints should display.
func SortedByPolicy(jobs []*job.Job, pol Policy, now int64) []*job.Job {
	q := append([]*job.Job(nil), jobs...)
	slices.SortStableFunc(q, func(a, b *job.Job) int { return policyCmp(pol, a, b, now) })
	return q
}
