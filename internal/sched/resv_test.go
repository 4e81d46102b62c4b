package sched

import (
	"slices"
	"testing"

	"repro/internal/job"
)

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
