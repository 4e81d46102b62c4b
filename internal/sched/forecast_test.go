package sched

import (
	"testing"

	"repro/internal/job"
	"repro/internal/sim"
)

func fj(id int, arr, rt int64, w int) *job.Job {
	return &job.Job{ID: id, Arrival: arr, Runtime: rt, Estimate: rt, Width: w}
}

// ShowStart is the bare dry-run: a forecast with no scheduler-held
// reservations to override it.
func ShowStart(procs int, now int64, running []RunningSlot, queued []*job.Job, pol Policy) map[int]int64 {
	return ForecastFromState(procs, now, running, queued, pol, nil)
}

// Forecast combines both prediction sources for one queue snapshot: the
// scheduler's own reservations where it holds them, and the dry-run for
// everything else.
func Forecast(s any, procs int, now int64, running []RunningSlot, queued []*job.Job, pol Policy) map[int]int64 {
	return ForecastFromState(procs, now, running, queued, pol, Reservations(s, queued))
}

func TestShowStartEmptyMachine(t *testing.T) {
	q := []*job.Job{fj(1, 0, 100, 4)}
	got := ShowStart(8, 50, nil, q, FCFS{})
	if got[1] != 50 {
		t.Fatalf("predicted %d, want 50 (starts immediately on an empty machine)", got[1])
	}
}

func TestShowStartWaitsForRunners(t *testing.T) {
	running := []RunningSlot{{Width: 6, EstEnd: 200}, {Width: 2, EstEnd: 120}}
	q := []*job.Job{fj(1, 0, 100, 4)}
	got := ShowStart(8, 100, running, q, FCFS{})
	// 4 procs free only when the 6-wide runner ends.
	if got[1] != 200 {
		t.Fatalf("predicted %d, want 200", got[1])
	}
}

func TestShowStartBackfillsNarrowJob(t *testing.T) {
	running := []RunningSlot{{Width: 7, EstEnd: 500}}
	q := []*job.Job{
		fj(1, 0, 1000, 8), // head: must wait for the whole machine
		fj(2, 0, 100, 1),  // fits the 1-proc hole right now
	}
	got := ShowStart(8, 100, running, q, FCFS{})
	if got[1] != 500 {
		t.Fatalf("head predicted %d, want 500", got[1])
	}
	if got[2] != 100 {
		t.Fatalf("narrow predicted %d, want 100 (backfills immediately)", got[2])
	}
}

func TestShowStartChainsReservations(t *testing.T) {
	// Two full-width jobs queue behind a full-width runner: predictions
	// stack one estimate after another.
	running := []RunningSlot{{Width: 8, EstEnd: 100}}
	q := []*job.Job{fj(1, 0, 50, 8), fj(2, 0, 30, 8)}
	got := ShowStart(8, 10, running, q, FCFS{})
	if got[1] != 100 || got[2] != 150 {
		t.Fatalf("predicted (%d, %d), want (100, 150)", got[1], got[2])
	}
}

// TestForecastMatchesConservativeExact pins the forecast's exactness
// property: under conservative backfilling with exact estimates there is no
// compression, so the prediction taken at any instant equals the real start
// for every queued job.
func TestForecastMatchesConservativeExact(t *testing.T) {
	const procs = 8
	jobs := []*job.Job{
		fj(1, 0, 100, 8),
		fj(2, 0, 200, 4),
		fj(3, 5, 50, 4),
		fj(4, 10, 80, 8),
		fj(5, 20, 30, 2),
	}
	s := NewConservative(procs, FCFS{})
	ss, err := sim.Open(sim.Machine{Procs: procs}, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := ss.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	// Advance until every job has arrived, then forecast the queue.
	if err := ss.AdvanceTo(20); err != nil {
		t.Fatal(err)
	}
	var running []RunningSlot
	for _, r := range ss.Running() {
		running = append(running, RunningSlot{Width: r.Job.Width, EstEnd: r.EstEnd})
	}
	queued := ss.Queued()
	if len(queued) == 0 {
		t.Fatal("expected a backlog at t=20")
	}
	pred := Forecast(s, procs, ss.Now(), running, queued, FCFS{})

	ps, err := ss.Drain()
	if err != nil {
		t.Fatal(err)
	}
	actual := make(map[int]int64, len(ps))
	for _, p := range ps {
		actual[p.Job.ID] = p.Start
	}
	for _, j := range queued {
		if pred[j.ID] != actual[j.ID] {
			t.Errorf("job %d: predicted start %d, actual %d", j.ID, pred[j.ID], actual[j.ID])
		}
	}
}

// TestForecastNeverBeforeNow guards the clamp: a stale reservation in the
// past must be reported as "now", not as a time the client cannot act on.
func TestForecastNeverBeforeNow(t *testing.T) {
	q := []*job.Job{fj(1, 0, 10, 1)}
	got := Forecast(staleReservist{}, 8, 500, nil, q, FCFS{})
	if got[1] != 500 {
		t.Fatalf("predicted %d, want clamped to 500", got[1])
	}
}

type staleReservist struct{}

func (staleReservist) Name() string                  { return "stale" }
func (staleReservist) Reservation(int) (int64, bool) { return 17, true }

func TestSortedByPolicy(t *testing.T) {
	a, b := fj(1, 0, 100, 1), fj(2, 0, 10, 1)
	got := SortedByPolicy([]*job.Job{a, b}, SJF{}, 0)
	if got[0].ID != 2 {
		t.Fatalf("SJF should order the short job first, got %d", got[0].ID)
	}
}
