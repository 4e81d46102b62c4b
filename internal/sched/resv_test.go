package sched

import (
	"slices"
	"testing"

	"repro/internal/job"
	"repro/internal/stats"
)

// unprunedDisplacement is resvEngine.displacement without the bound on the
// windows it tries: every queued window after now is released and probed.
func unprunedDisplacement(s *resvEngine, now int64, j *job.Job) (start int64, victim *job.Job, victimStart int64) {
	start = s.profile.FindStart(now, j.Estimate, j.Width)
	if !(s.slack > 0 && start > now) {
		return start, nil, 0
	}
	for _, k := range s.queue {
		old, ok := s.resv.Get(k.ID)
		if !ok || old <= now {
			continue
		}
		s.profile.Release(old, k.Estimate, k.Width)
		if cand := s.profile.FindStart(now, j.Estimate, j.Width); cand < start {
			s.profile.Reserve(cand, j.Estimate, j.Width)
			kNew := s.profile.FindStart(now, k.Estimate, k.Width)
			s.profile.Release(cand, j.Estimate, j.Width)
			if g, _ := s.guarantee.Get(k.ID); kNew <= g {
				start, victim, victimStart = cand, k, kNew
			}
		}
		s.profile.Reserve(old, k.Estimate, k.Width)
		if start == now {
			break
		}
	}
	return start, victim, victimStart
}

// TestGrantMatchesUnprunedReference: the windows displacement skips could
// never have helped. After every call of a random program into a SlackBased
// scheduler, a random probe job's displacement choice — start, victim and
// the victim's new start — equals the unpruned loop's, and both leave the
// profile as they found it. The test also counts that the bound skipped
// windows and that victims were chosen, so neither side of it is vacuous.
func TestGrantMatchesUnprunedReference(t *testing.T) {
	const procs = 16
	skipped, displaced := 0, 0
	for _, slack := range []float64{0.5, 1, 2} {
		for _, pol := range []Policy{FCFS{}, SJF{}, XF{}} {
			for seed := int64(1); seed <= 3; seed++ {
				s := NewSlackBased(procs, pol, slack)
				probes := stats.NewRNG(seed + 100)
				var d *randomDriver
				d = newRandomDriver(s, procs, seed, func(op string) {
					j := &job.Job{ID: -1, Arrival: d.now, Estimate: int64(probes.Intn(400) + 1), Width: probes.Intn(procs) + 1}
					if first := s.profile.FindStart(d.now, j.Estimate, j.Width); first > d.now {
						for _, k := range s.queue {
							if old, ok := s.resv.Get(k.ID); ok && old >= first+max(j.Estimate, 1) {
								skipped++
							}
						}
					}
					before := slices.Clone(s.profile.points)
					start, _, victim, victimStart := s.displacement(d.now, j)
					if !slices.Equal(s.profile.points, before) {
						t.Fatalf("slack %g %s seed %d, after %s at t=%d: displacement changed the profile", slack, pol.Name(), seed, op, d.now)
					}
					wStart, wVictim, wVictimStart := unprunedDisplacement(&s.resvEngine, d.now, j)
					if start != wStart || victim != wVictim || victimStart != wVictimStart {
						t.Fatalf("slack %g %s seed %d, after %s at t=%d: displacement (%d, %v, %d), unpruned (%d, %v, %d)",
							slack, pol.Name(), seed, op, d.now, start, victim, victimStart, wStart, wVictim, wVictimStart)
					}
					if victim != nil {
						displaced++
					}
				})
				d.run(200)
			}
		}
	}
	if skipped == 0 || displaced == 0 {
		t.Fatalf("the bound skipped %d windows and %d probes displaced a victim: want both positive", skipped, displaced)
	}
	t.Logf("the bound skipped %d windows; %d probes displaced a victim", skipped, displaced)
}

// TestReservationWriteLog: nothing is logged until somebody asks for the
// log (a scheduler nobody audits must not grow an entry per reservation),
// and from then on every grant and every move is, and nothing else.
func TestReservationWriteLog(t *testing.T) {
	s := NewConservative(4, FCFS{})
	s.Arrive(0, &job.Job{ID: 1, Arrival: 0, Runtime: 10, Estimate: 100, Width: 4})
	s.Launch(0)
	if len(s.resv.log) != 0 {
		t.Fatalf("untracked scheduler logged %v", s.resv.log)
	}
	drain := s.TrackReservationWrites()
	s.Arrive(1, &job.Job{ID: 2, Arrival: 1, Runtime: 10, Estimate: 10, Width: 4})
	s.Arrive(1, &job.Job{ID: 3, Arrival: 1, Runtime: 10, Estimate: 10, Width: 2})
	if got := drain(); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("after two arrivals the log holds %v, want [2 3]", got)
	}
	if got := drain(); len(got) != 0 {
		t.Fatalf("a drained log still holds %v", got)
	}
	// Job 1 finishes 90 s early: both reservations are pulled forward.
	s.Complete(10, &job.Job{ID: 1, Arrival: 0, Runtime: 10, Estimate: 100, Width: 4})
	got := slices.Clone(drain())
	slices.Sort(got)
	if !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("compression logged %v, want jobs 2 and 3", got)
	}
	if r2, _ := s.Reservation(2); r2 != 10 {
		t.Fatalf("job 2 reserved at %d after compression, want 10", r2)
	}
	s.Launch(10) // job 2 starts: a drop, not a write
	if got := drain(); len(got) != 0 {
		t.Fatalf("starting a job logged %v", got)
	}
}
