package sim

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"repro/internal/job"
)

// cancellableFIFO extends greedyFIFO with the Cancel capability so session
// cancellation paths can be exercised without importing sched.
type cancellableFIFO struct{ *greedyFIFO }

func (c cancellableFIFO) Cancel(_ int64, j *job.Job) bool {
	for i, q := range c.queue {
		if q.ID == j.ID {
			c.greedyFIFO.queue = append(c.queue[:i], c.queue[i+1:]...)
			return true
		}
	}
	return false
}

func TestSessionBatchEqualsRun(t *testing.T) {
	jobs := []*job.Job{
		mkJob(1, 0, 50, 4), mkJob(2, 0, 30, 4), mkJob(3, 10, 40, 8),
		mkJob(4, 60, 5, 2), mkJob(5, 61, 25, 6),
	}
	want, err := Run(Machine{Procs: 8}, jobs, newGreedyFIFO(8), nil)
	if err != nil {
		t.Fatal(err)
	}

	ss, err := Open(Machine{Procs: 8}, newGreedyFIFO(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := ss.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ss.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("placements: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("placement %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestSessionIncrementalSubmission(t *testing.T) {
	// Submitting each job just before its arrival instant is reached must
	// reproduce the batch schedule exactly.
	jobs := []*job.Job{
		mkJob(1, 0, 50, 8), mkJob(2, 5, 30, 4), mkJob(3, 40, 40, 8),
		mkJob(4, 90, 5, 2), mkJob(5, 95, 25, 6),
	}
	want, err := Run(Machine{Procs: 8}, jobs, newGreedyFIFO(8), nil)
	if err != nil {
		t.Fatal(err)
	}

	ss, err := Open(Machine{Procs: 8}, newGreedyFIFO(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		// Advance virtual time to the submission instant, then submit.
		if err := ss.AdvanceTo(j.Arrival - 1); err != nil {
			t.Fatal(err)
		}
		if err := ss.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ss.Drain()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("placement %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestSessionStepAndInfo(t *testing.T) {
	ss, err := Open(Machine{Procs: 8}, newGreedyFIFO(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	a := mkJob(1, 0, 100, 8)
	b := mkJob(2, 10, 20, 8)
	for _, j := range []*job.Job{a, b} {
		if err := ss.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if info, ok := ss.Info(2); !ok || info.State != StatePending {
		t.Fatalf("before any step: %+v ok=%v", info, ok)
	}

	// First instant: job 1 arrives and starts.
	if ok, err := ss.Step(); !ok || err != nil {
		t.Fatalf("step 1: ok=%v err=%v", ok, err)
	}
	if ss.Now() != 0 {
		t.Fatalf("now = %d, want 0", ss.Now())
	}
	info, _ := ss.Info(1)
	if info.State != StateRunning || info.Start != 0 || info.EstEnd != 101 {
		t.Fatalf("job 1 after start: %+v", info)
	}
	if n := len(ss.Running()); n != 1 {
		t.Fatalf("running = %d, want 1", n)
	}

	// Second instant: job 2 arrives, machine full, it queues.
	if ok, err := ss.Step(); !ok || err != nil {
		t.Fatalf("step 2: ok=%v err=%v", ok, err)
	}
	if info, _ := ss.Info(2); info.State != StateQueued {
		t.Fatalf("job 2 should queue: %+v", info)
	}
	if ss.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", ss.Pending())
	}

	ps, err := ss.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[1].Start != 100 || ps[1].End != 120 {
		t.Fatalf("final placements: %+v", ps)
	}
	if info, _ := ss.Info(2); info.State != StateDone || info.End != 120 {
		t.Fatalf("job 2 after drain: %+v", info)
	}
	if ss.Pending() != 0 {
		t.Fatalf("pending after drain = %d", ss.Pending())
	}
}

func TestSessionRejectsLateSubmission(t *testing.T) {
	ss, err := Open(Machine{Procs: 4}, newGreedyFIFO(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Submit(mkJob(1, 50, 10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ss.AdvanceTo(50); err != nil {
		t.Fatal(err)
	}
	err = ss.Submit(mkJob(2, 20, 10, 1))
	if err == nil || !strings.Contains(err.Error(), "after its arrival") {
		t.Fatalf("want late-submission error, got %v", err)
	}
	// Same-instant submission is fine.
	if err := ss.Submit(mkJob(3, 50, 10, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionSubmitValidation(t *testing.T) {
	ss, err := Open(Machine{Procs: 4}, newGreedyFIFO(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Submit(&job.Job{ID: 1, Runtime: 10, Estimate: 5, Width: 1}); err == nil {
		t.Fatal("want error for invalid job")
	}
	if err := ss.Submit(mkJob(1, 0, 10, 8)); err == nil || !strings.Contains(err.Error(), "8 processors") {
		t.Fatalf("want too-wide error, got %v", err)
	}
	if err := ss.Submit(mkJob(1, 0, 10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ss.Submit(mkJob(1, 5, 10, 1)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate error, got %v", err)
	}
}

func TestSessionCancelQueued(t *testing.T) {
	g := cancellableFIFO{newGreedyFIFO(8)}
	ss, err := Open(Machine{Procs: 8}, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	blocker := mkJob(1, 0, 100, 8)
	victim := mkJob(2, 0, 50, 8)
	waiter := mkJob(3, 0, 10, 8)
	for _, j := range []*job.Job{blocker, victim, waiter} {
		if err := ss.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := ss.Step(); !ok || err != nil {
		t.Fatalf("step: ok=%v err=%v", ok, err)
	}
	if !ss.Cancel(2) {
		t.Fatal("cancel of queued job failed")
	}
	if ss.Cancel(2) {
		t.Fatal("second cancel should fail")
	}
	if ss.Cancel(1) {
		t.Fatal("cancel of running job should fail")
	}
	if info, _ := ss.Info(2); info.State != StateCancelled {
		t.Fatalf("victim state: %+v", info)
	}
	ps, err := ss.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("placements = %d, want 2", len(ps))
	}
	// With the victim gone, the waiter starts right after the blocker.
	if ps[1].Job.ID != 3 || ps[1].Start != 100 {
		t.Fatalf("waiter placement: %+v", ps[1])
	}
}

func TestSessionCancelPending(t *testing.T) {
	ss, err := Open(Machine{Procs: 4}, newGreedyFIFO(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Submit(mkJob(1, 0, 10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ss.Submit(mkJob(2, 100, 10, 1)); err != nil {
		t.Fatal(err)
	}
	// Job 2's arrival has not been reached; cancelling it must work even
	// without scheduler support (greedyFIFO has no Cancel).
	if !ss.Cancel(2) {
		t.Fatal("cancel of pending job failed")
	}
	if ss.Cancel(99) {
		t.Fatal("cancel of unknown job should fail")
	}
	ps, err := ss.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].Job.ID != 1 {
		t.Fatalf("placements: %+v", ps)
	}
}

func TestSessionFinishWithPendingEvents(t *testing.T) {
	ss, err := Open(Machine{Procs: 4}, newGreedyFIFO(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Submit(mkJob(1, 0, 10, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Finish(); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Fatalf("want pending-events error, got %v", err)
	}
}

func TestSessionStickyError(t *testing.T) {
	ss, err := Open(Machine{Procs: 4}, &doubleScheduler{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Submit(mkJob(1, 0, 10, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Step(); err == nil {
		t.Fatal("want double-launch error")
	}
	if ss.Err() == nil {
		t.Fatal("error should stick")
	}
	if err := ss.Submit(mkJob(2, 0, 10, 1)); err == nil {
		t.Fatal("submit after failure should fail")
	}
	if _, err := ss.Drain(); err == nil {
		t.Fatal("drain after failure should fail")
	}
}

// forgetfulFIFO acknowledges every cancellation and withdraws nothing, so
// the cancelled job is still in its queue when its turn comes.
type forgetfulFIFO struct{ *greedyFIFO }

func (forgetfulFIFO) Cancel(int64, *job.Job) bool { return true }

// TestSessionRefusesCancelledLaunch: the session told the client the job
// was withdrawn; a scheduler that starts it anyway has broken the engine
// contract, and the session must stop rather than run the job.
func TestSessionRefusesCancelledLaunch(t *testing.T) {
	ss, err := Open(Machine{Procs: 8}, forgetfulFIFO{newGreedyFIFO(8)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*job.Job{mkJob(1, 0, 100, 8), mkJob(2, 0, 50, 8)} {
		if err := ss.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := ss.Step(); !ok || err != nil {
		t.Fatalf("step: ok=%v err=%v", ok, err)
	}
	if !ss.Cancel(2) {
		t.Fatal("cancel of queued job failed")
	}
	_, err = ss.Drain() // job 1 completes at t=100 and the scheduler starts job 2
	if err == nil || !strings.Contains(err.Error(), "launched cancelled") {
		t.Fatalf("want launched-cancelled error, got %v", err)
	}
	if ss.Err() == nil {
		t.Fatal("error should stick")
	}
	if info, _ := ss.Info(2); info.State != StateCancelled {
		t.Fatalf("cancelled job state: %+v", info)
	}
}

func TestOpenRejectsBadInputs(t *testing.T) {
	if _, err := Open(Machine{Procs: 0}, newGreedyFIFO(1), nil); err == nil {
		t.Fatal("want error for zero-proc machine")
	}
	if _, err := Open(Machine{Procs: 1}, nil, nil); err == nil {
		t.Fatal("want error for nil scheduler")
	}
}

// TestPlacementsMidRunAreCompletedJobsInStartOrder pins what Placements
// returns before a run ends: the completed jobs only, ordered by (start,
// ID) — not a prefix of the final schedule, since a job still running can
// have started before one that completed. Here job 3 starts at 0 and runs
// to 100 while jobs 1, 2 and 4 finish; they complete in the order 2, 4, 1
// and were dispatched in the order 3, 2, 1, 4, so neither order is the
// answer. The check after every step holds the same contract against the
// jobs' own states.
func TestPlacementsMidRunAreCompletedJobsInStartOrder(t *testing.T) {
	jobs := []*job.Job{mkJob(3, 0, 100, 2), mkJob(2, 0, 10, 2), mkJob(1, 0, 20, 2), mkJob(4, 5, 5, 2)}
	ss, err := Open(Machine{Procs: 8}, newGreedyFIFO(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := ss.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	type placed struct {
		id         int
		start, end int64
	}
	view := func(ps []Placement) []placed {
		var out []placed
		for _, p := range ps {
			out = append(out, placed{p.Job.ID, p.Start, p.End})
		}
		return out
	}
	for {
		ok, err := ss.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		var want []placed
		for _, info := range ss.Infos() {
			if info.State == StateDone {
				want = append(want, placed{info.Job.ID, info.Start, info.End})
			}
		}
		slices.SortFunc(want, func(a, b placed) int {
			return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.id, b.id))
		})
		if got := view(ss.Placements()); !slices.Equal(got, want) {
			t.Fatalf("t=%d: Placements %v, want the completed jobs %v", ss.Now(), got, want)
		}
		if ss.Now() == 20 {
			want := []placed{{1, 0, 20}, {2, 0, 10}, {4, 5, 10}}
			if got := view(ss.Placements()); !slices.Equal(got, want) {
				t.Fatalf("t=20: Placements %v, want %v", got, want)
			}
		}
	}
	final, err := ss.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := view(final), []placed{{1, 0, 20}, {2, 0, 10}, {3, 0, 100}, {4, 5, 10}}; !slices.Equal(got, want) {
		t.Fatalf("final placements %v, want %v", got, want)
	}
}
