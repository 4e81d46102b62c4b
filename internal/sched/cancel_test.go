package sched

import (
	"testing"

	"repro/internal/job"
	"repro/internal/stats"
)

func TestCancelQueueRemoval(t *testing.T) {
	// All queue-only schedulers: cancel removes exactly the target.
	type canceler interface {
		Canceler
		Arrive(now int64, j *job.Job)
		QueuedJobs() []*job.Job
	}
	builders := map[string]func() canceler{
		"EASY":       func() canceler { return NewEASY(8, FCFS{}) },
		"NoBackfill": func() canceler { return NewNoBackfill(8, FCFS{}) },
		"DepthK":     func() canceler { return NewDepthK(8, FCFS{}, 2) },
		"Preemptive": func() canceler { return NewPreemptive(8, FCFS{}, 5, 60) },
	}
	for name, mk := range builders {
		t.Run(name, func(t *testing.T) {
			s := mk()
			j1 := exactJob(1, 0, 100, 8)
			j2 := exactJob(2, 0, 100, 8)
			s.Arrive(0, j1)
			s.Arrive(0, j2)
			if !s.Cancel(0, j1) {
				t.Fatal("cancel of queued job failed")
			}
			if s.Cancel(0, j1) {
				t.Fatal("second cancel should report false")
			}
			q := s.QueuedJobs()
			if len(q) != 1 || q[0].ID != 2 {
				t.Fatalf("queue after cancel = %v", q)
			}
			if s.Cancel(0, exactJob(99, 0, 10, 1)) {
				t.Fatal("cancel of unknown job should report false")
			}
		})
	}
}

func TestConservativeCancelReleasesReservation(t *testing.T) {
	// j1 runs [0,100) on the whole machine; j2 reserved [100,200); j3
	// reserved [200,300). Cancelling j2 must compress j3 to 100.
	s := NewConservative(10, FCFS{})
	j1 := exactJob(1, 0, 100, 10)
	j2 := exactJob(2, 0, 100, 10)
	j3 := exactJob(3, 0, 100, 10)
	s.Arrive(0, j1)
	s.Arrive(0, j2)
	s.Arrive(0, j3)
	s.Launch(0) // starts j1

	if r, _ := s.Reservation(3); r != 200 {
		t.Fatalf("j3 initially reserved at %d, want 200", r)
	}
	if !s.Cancel(0, j2) {
		t.Fatal("cancel failed")
	}
	if r, _ := s.Reservation(3); r != 100 {
		t.Fatalf("j3 after cancel reserved at %d, want 100 (compressed into the hole)", r)
	}
	if _, ok := s.Reservation(2); ok {
		t.Fatal("cancelled job still holds a reservation")
	}
	if len(s.Violations()) != 0 {
		t.Fatalf("violations: %v", s.Violations())
	}
}

func TestConservativeCancelOfStartableJob(t *testing.T) {
	// A job whose reservation time has arrived (resv == now) can still be
	// cancelled before Launch claims it; the window [now, now+est) must be
	// released so capacity accounting stays exact.
	s := NewConservative(10, FCFS{})
	j1 := exactJob(1, 0, 100, 10)
	s.Arrive(0, j1)
	if !s.Cancel(0, j1) {
		t.Fatal("cancel failed")
	}
	// The full machine must be reservable again right now.
	j2 := exactJob(2, 0, 100, 10)
	s.Arrive(0, j2)
	if r, _ := s.Reservation(2); r != 0 {
		t.Fatalf("after cancelling j1, j2 reserved at %d, want 0", r)
	}
}

func TestSlackCancelReleasesReservation(t *testing.T) {
	s := NewSlackBased(10, FCFS{}, 1)
	j1 := exactJob(1, 0, 100, 10)
	j2 := exactJob(2, 0, 100, 10)
	j3 := exactJob(3, 0, 100, 10)
	s.Arrive(0, j1)
	s.Arrive(0, j2)
	s.Arrive(0, j3)
	s.Launch(0)
	if !s.Cancel(0, j2) {
		t.Fatal("cancel failed")
	}
	if r, _ := s.Reservation(3); r != 100 {
		t.Fatalf("j3 after cancel reserved at %d, want 100", r)
	}
	if _, ok := s.Guarantee(2); ok {
		t.Fatal("cancelled job still holds a guarantee")
	}
	if s.Cancel(0, j2) {
		t.Fatal("double cancel should report false")
	}
}

func TestSelectiveCancelPromotedJob(t *testing.T) {
	s := NewSelective(10, FCFS{}, 1) // threshold 1: promote immediately
	j1 := exactJob(1, 0, 100, 10)
	j2 := exactJob(2, 0, 100, 10)
	s.Arrive(0, j1)
	s.Arrive(0, j2)
	s.Launch(0) // starts j1, promotes j2 with a reservation at 100
	if _, promoted := s.Promoted(2); !promoted {
		t.Fatal("j2 should be promoted at threshold 1")
	}
	if !s.Cancel(0, j2) {
		t.Fatal("cancel failed")
	}
	if _, promoted := s.Promoted(2); promoted {
		t.Fatal("cancelled job still promoted")
	}
	// Capacity must be free at 100 again: a new arrival can take it.
	j3 := exactJob(3, 0, 100, 10)
	s.Arrive(0, j3)
	out := s.Launch(0)
	if len(out) != 0 {
		t.Fatalf("j3 should queue behind running j1, got %v", out)
	}
	if v := s.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestPreemptiveCancelRefusesSuspendedJob(t *testing.T) {
	s := NewPreemptive(8, FCFS{}, 5, 60)
	j := exactJob(1, 0, 100, 4)
	s.Arrive(0, j)
	s.consumed.Set(j.ID, 10) // simulate banked work from a suspension
	if s.Cancel(0, j) {
		t.Fatal("suspended job must not be cancellable")
	}
}

// TestCancelUnderRandomLoad drives conservative backfilling through a full
// hand-rolled event loop — arrivals, completions AND random cancellations —
// checking that the profile never corrupts (its Reserve/Release panics are
// the detector) and that every surviving job runs within capacity.
func TestCancelUnderRandomLoad(t *testing.T) {
	r := stats.NewRNG(1900)
	for trial := 0; trial < 30; trial++ {
		const procs = 16
		s := NewConservative(procs, FCFS{})

		type completion struct {
			at int64
			j  *job.Job
		}
		var pending []completion
		inUse := 0
		now := int64(0)

		deliverUntil := func(limit int64) {
			for {
				// Earliest pending completion time within the limit.
				next := int64(-1)
				for _, c := range pending {
					if c.at <= limit && (next == -1 || c.at < next) {
						next = c.at
					}
				}
				if next == -1 {
					return
				}
				// Batch every completion at that instant before launching,
				// exactly as the engine does: a start at t may reuse the
				// processors of any job whose work ends at t.
				kept := pending[:0]
				for _, c := range pending {
					if c.at == next {
						s.Complete(c.at, c.j)
						inUse -= c.j.Width
					} else {
						kept = append(kept, c)
					}
				}
				pending = kept
				for _, st := range s.Launch(next) {
					inUse += st.Width
					pending = append(pending, completion{next + st.Runtime, st})
				}
				if inUse > procs {
					t.Fatalf("trial %d: capacity exceeded (%d > %d)", trial, inUse, procs)
				}
			}
		}

		for i := 1; i <= 40; i++ {
			now += int64(r.Intn(120))
			deliverUntil(now)
			j := &job.Job{
				ID: i, Arrival: now,
				Runtime: int64(r.Intn(500) + 1), Width: r.Intn(procs) + 1,
			}
			j.Estimate = j.Runtime
			s.Arrive(now, j)
			for _, st := range s.Launch(now) {
				inUse += st.Width
				pending = append(pending, completion{now + st.Runtime, st})
			}
			if inUse > procs {
				t.Fatalf("trial %d: capacity exceeded (%d > %d)", trial, inUse, procs)
			}
			if r.Bool(0.3) {
				q := s.QueuedJobs()
				if len(q) > 0 {
					s.Cancel(now, q[r.Intn(len(q))])
					// Compression inside Cancel can pull a survivor to
					// "now"; the caller owes it a Launch pass, exactly as
					// grid.Run's fixed-point sweep provides.
					for _, st := range s.Launch(now) {
						inUse += st.Width
						pending = append(pending, completion{now + st.Runtime, st})
					}
					if inUse > procs {
						t.Fatalf("trial %d: capacity exceeded after cancel (%d > %d)", trial, inUse, procs)
					}
				}
			}
		}
		deliverUntil(1 << 60) // drain
		if v := s.Violations(); len(v) != 0 {
			t.Fatalf("trial %d: violations: %v", trial, v)
		}
	}
}
