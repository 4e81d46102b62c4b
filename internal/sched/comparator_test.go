package sched

import (
	"testing"

	"repro/internal/job"
)

// TestHeadReservationCountsSimultaneousFinishers pins the shadow
// computation's handling of runners whose estimates end at the same
// instant: all of them release processors at the shadow time, so all of
// them count toward the head's extra. (A regression here was found by the
// differential harness: under-counting extra made EASY diverge from
// depth-1 lookahead.)
func TestHeadReservationCountsSimultaneousFinishers(t *testing.T) {
	s := NewEASY(8, FCFS{})
	a := &job.Job{ID: 1, Arrival: 0, Runtime: 10, Estimate: 10, Width: 2}
	b := &job.Job{ID: 2, Arrival: 0, Runtime: 10, Estimate: 10, Width: 2}
	s.Arrive(0, a)
	s.Arrive(0, b)
	if got := s.Launch(0); len(got) != 2 {
		t.Fatalf("setup: started %d jobs, want 2", len(got))
	}

	head := &job.Job{ID: 3, Arrival: 0, Runtime: 30, Estimate: 30, Width: 6}
	shadow, extra := headReservation(s.running, s.free, head)
	if shadow != 10 || extra != 2 {
		t.Fatalf("headReservation = (%d, %d), want (10, 2): both runners end at 10", shadow, extra)
	}

	// The candidate overruns the shadow but fits in the extra processors,
	// so it must backfill.
	cand := &job.Job{ID: 4, Arrival: 0, Runtime: 100, Estimate: 100, Width: 2}
	s.Arrive(0, head)
	s.Arrive(0, cand)
	started := s.Launch(0)
	if len(started) != 1 || started[0].ID != cand.ID {
		t.Fatalf("Launch = %v, want the width-2 candidate backfilled into extra", started)
	}
}

// TestHeadReservationDeterministicUnderReordering checks the comparator
// behind the shadow computation is total: runners inserted in any order
// (equal estimate ends, distinct IDs) give the same reservation. The sort
// tie-breaks on job ID, so the scan order — and therefore the schedule —
// cannot depend on map or insertion order.
func TestHeadReservationDeterministicUnderReordering(t *testing.T) {
	mk := func(order []int) (int64, int) {
		s := NewEASY(8, FCFS{})
		jobs := map[int]*job.Job{
			1: {ID: 1, Arrival: 0, Runtime: 10, Estimate: 10, Width: 3},
			2: {ID: 2, Arrival: 0, Runtime: 10, Estimate: 10, Width: 2},
			3: {ID: 3, Arrival: 0, Runtime: 10, Estimate: 10, Width: 2},
		}
		for _, id := range order {
			s.Arrive(0, jobs[id])
		}
		if got := s.Launch(0); len(got) != 3 {
			t.Fatalf("setup: started %d jobs, want 3", len(got))
		}
		return headReservation(s.running, s.free,
			&job.Job{ID: 9, Arrival: 0, Runtime: 5, Estimate: 5, Width: 4})
	}
	wantShadow, wantExtra := mk([]int{1, 2, 3})
	for _, order := range [][]int{{3, 2, 1}, {2, 1, 3}, {1, 3, 2}} {
		shadow, extra := mk(order)
		if shadow != wantShadow || extra != wantExtra {
			t.Fatalf("order %v: headReservation = (%d, %d), want (%d, %d)",
				order, shadow, extra, wantShadow, wantExtra)
		}
	}
}

// TestPreemptiveHeadReservationSimultaneousFinishers is the same
// simultaneous-finish pin over the preemptive scheduler's running set,
// which it hands to the one shadow computation.
func TestPreemptiveHeadReservationSimultaneousFinishers(t *testing.T) {
	s := NewPreemptive(8, FCFS{}, 10, DefaultMinRun)
	a := &job.Job{ID: 1, Arrival: 0, Runtime: 10, Estimate: 10, Width: 2}
	b := &job.Job{ID: 2, Arrival: 0, Runtime: 10, Estimate: 10, Width: 2}
	s.Arrive(0, a)
	s.Arrive(0, b)
	if starts, _ := s.LaunchAndPreempt(0); len(starts) != 2 {
		t.Fatalf("setup: started %d jobs, want 2", len(starts))
	}
	shadow, extra := headReservation(s.running, s.free,
		&job.Job{ID: 3, Arrival: 0, Runtime: 30, Estimate: 30, Width: 6})
	if shadow != 10 || extra != 2 {
		t.Fatalf("headReservation = (%d, %d), want (10, 2)", shadow, extra)
	}
}
