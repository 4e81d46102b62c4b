package sim_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// poolRun is one batch run of TestRunReusesSessionsUnseen.
type poolRun struct {
	name  string
	procs int
	kind  string
	jobs  []*job.Job
}

// scheduler makes the run's scheduler, or one that never starts a job for
// kind "stuck".
func (r poolRun) scheduler(t *testing.T) sim.Scheduler {
	if r.kind == "stuck" {
		return &stuck{}
	}
	mk, err := sched.MakerFor(r.kind, sched.FCFS{})
	if err != nil {
		t.Fatal(err)
	}
	return mk(r.procs)
}

// stuck queues every job and starts none: a deadlocked run.
type stuck struct{ queue []*job.Job }

func (s *stuck) Name() string                 { return "stuck" }
func (s *stuck) Arrive(_ int64, j *job.Job)   { s.queue = append(s.queue, j) }
func (s *stuck) Complete(_ int64, _ *job.Job) {}
func (s *stuck) Launch(_ int64) []*job.Job    { return nil }
func (s *stuck) QueuedJobs() []*job.Job       { return s.queue }

// alone runs r on a session of its own, which Open never takes from or
// hands back to a pool, and renders the outcome: every placement, or the
// error.
func (r poolRun) alone(t *testing.T) string {
	ss, err := sim.Open(sim.Machine{Procs: r.procs}, r.scheduler(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range r.jobs {
		if err := ss.Submit(j); err != nil {
			return err.Error()
		}
	}
	ps, err := ss.Drain()
	return render(ps, err)
}

func render(ps []sim.Placement, err error) string {
	if err != nil {
		return err.Error()
	}
	var b strings.Builder
	fmt.Fprint(&b, len(ps))
	for _, p := range ps {
		fmt.Fprintf(&b, " %d@%d-%d", p.Job.ID, p.Start, p.End)
	}
	return b.String()
}

// TestRunReusesSessionsUnseen sends runs of every shape a pooled session
// meets through sim.Run, one after another and twice over, so each takes
// the session the one before released: a large trace, a tiny one, sparse
// IDs (the hashed job table), a run with timers, one with suspensions, and
// two that fail. Each must read what it reads on a session of its own.
func TestRunReusesSessionsUnseen(t *testing.T) {
	// One P and no collection, so each run takes the session the one
	// before put back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m, err := workload.NewSDSC(0.9)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := m.Generate(4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	trace = workload.ApplyEstimates(trace, workload.Actual{}, 4)
	var sparse, wide []*job.Job
	for _, j := range trace[:300] {
		c := *j
		c.ID = 1000 * j.ID
		sparse = append(sparse, &c)
	}
	for _, j := range trace[:200] {
		c := *j
		wide = append(wide, &c)
	}
	wide[150].Width = m.Procs + 1
	// The run after "too wide" is smaller, so it lays its events out in
	// the array the failed run left arrivals in.
	runs := []poolRun{
		{"trace", m.Procs, "conservative", trace},
		{"too wide", m.Procs, "easy", wide},
		{"three jobs", m.Procs, "easy", trace[10:13]},
		{"sparse IDs", m.Procs, "easy", sparse},
		{"timers", m.Procs, "conservative-nc", trace[:1000]},
		{"suspensions", m.Procs, "preemptive:10", trace[:1000]},
		{"deadlock", m.Procs, "stuck", trace[:100]},
	}
	want := make([]string, len(runs))
	for i, r := range runs {
		want[i] = r.alone(t)
	}
	if !strings.Contains(want[1], "processors") || !strings.Contains(want[6], "deadlocked") {
		t.Fatalf("the failing runs read %q and %q", want[1], want[6])
	}
	for round := 0; round < 2; round++ {
		for i, r := range runs {
			got := render(sim.Run(sim.Machine{Procs: r.procs}, r.jobs, r.scheduler(t), nil))
			if got != want[i] {
				t.Fatalf("round %d, %s after %s: sim.Run reads\n%.200s\nalone\n%.200s", round, r.name, runs[(i+len(runs)-1)%len(runs)].name, got, want[i])
			}
		}
	}
}
