package sched

import (
	"testing"

	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestPreemptiveConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewPreemptive(0, FCFS{}, 2, 60) },
		func() { NewPreemptive(8, nil, 2, 60) },
		func() { NewPreemptive(8, FCFS{}, 0.5, 60) },
		func() { NewPreemptive(8, FCFS{}, 2, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
	if got := NewPreemptive(8, SJF{}, 5, 60).Name(); got != "Preemptive(SJF,xf>=5)" {
		t.Fatalf("Name = %q", got)
	}
}

// TestGoldenPreemption: a wide job starves behind a long narrow job; once
// its xfactor crosses the threshold it preempts the low-priority runner,
// which resumes afterwards with exactly its remaining work.
func TestGoldenPreemption(t *testing.T) {
	// Machine 10. j1: w4, runtime 10000, starts at 0 (never blocks j2's
	// shadow — j2 needs all 10 procs).
	// j2: w10, est 100, arrives at 10. EASY alone: must wait until j1
	// completes at 10000. Preemptive with threshold 5: j2's xfactor hits 5
	// at wait = 4×est = 400, i.e. t=410. The next event after that... no
	// events occur between 10 and 10000! Preemption needs a wake-up; give
	// the workload a heartbeat of tiny jobs so decisions happen.
	jobs := []*job.Job{
		exactJob(1, 0, 10000, 4),
		exactJob(2, 10, 100, 10),
	}
	// Heartbeat: 1-proc 1-second jobs every 50s. They backfill instantly
	// beside j1 (ending before any shadow) while capacity remains.
	id := 3
	for t0 := int64(50); t0 <= 1000; t0 += 50 {
		jobs = append(jobs, exactJob(id, t0, 1, 1))
		id++
	}

	s := NewPreemptive(10, FCFS{}, 5, 60)
	aud := NewAuditor(10)
	ps, err := sim.Run(sim.Machine{Procs: 10}, jobs, s, aud.Observer())
	if err != nil {
		t.Fatal(err)
	}
	if err := aud.Err(); err != nil {
		t.Fatal(err)
	}
	byID := map[int]sim.Placement{}
	for _, p := range ps {
		byID[p.Job.ID] = p
	}
	j2 := byID[2]
	if j2.Start > 1000 {
		t.Fatalf("starving wide job started at %d; preemption did not fire", j2.Start)
	}
	if j2.Start < 410 {
		t.Fatalf("wide job started at %d, before its xfactor could reach the threshold", j2.Start)
	}
	if j2.End != j2.Start+100 {
		t.Fatalf("wide job ran non-contiguously: %+v", j2)
	}
	// The victim resumed and completed all its work: total elapsed exceeds
	// its runtime by its suspension time.
	j1 := byID[1]
	if j1.End-j1.Start <= j1.Job.Runtime {
		t.Fatalf("victim was never suspended: %+v", j1)
	}
	suspendedFor := (j1.End - j1.Start) - j1.Job.Runtime
	if suspendedFor < 100 {
		t.Fatalf("victim suspension %ds shorter than the preemptor's runtime", suspendedFor)
	}
}

// TestPreemptiveMatchesEASYWithHugeThreshold: with a huge threshold the
// scheduler is plain EASY, under every kind of policy.
func TestPreemptiveMatchesEASYWithHugeThreshold(t *testing.T) {
	const procs = 32
	for _, pol := range []Policy{FCFS{}, SJF{}, XF{}} {
		for trial := 0; trial < 6; trial++ {
			jobs := genWorkload(stats.NewRNG(int64(1200+trial)), 150, procs, 1)
			easy := runOn(t, procs, jobs, NewEASY(procs, pol))
			pre := runOn(t, procs, jobs, NewPreemptive(procs, pol, 1e18, 60))
			for id := range easy {
				if pre[id] != easy[id] {
					t.Fatalf("%s trial %d: job %d differs: EASY %d vs preemptive %d", pol.Name(), trial, id, easy[id], pre[id])
				}
			}
		}
	}
}

// TestPreemptiveModeGuard: a pass that was not allowed to preempt says
// nothing about one that is. The wide waiter is past the threshold and the
// runner past its quantum when Launch concludes nothing can start; the
// LaunchAndPreempt that follows at the same instant must not take that
// conclusion for its own.
func TestPreemptiveModeGuard(t *testing.T) {
	s := NewPreemptive(10, FCFS{}, 2, 60)
	runner, waiter := exactJob(1, 0, 10000, 10), exactJob(2, 10, 100, 10)
	s.Arrive(0, runner)
	if got := s.Launch(0); len(got) != 1 || got[0] != runner {
		t.Fatalf("Launch(0) started %v, want the runner", got)
	}
	s.Arrive(10, waiter)
	if got := s.Launch(10); got != nil {
		t.Fatalf("Launch(10) started %v behind a full machine", got)
	}
	if got := s.Launch(500); got != nil {
		t.Fatalf("Launch(500) started %v: a plain pass never preempts", got)
	}
	starts, suspends := s.LaunchAndPreempt(500)
	if len(suspends) != 1 || suspends[0] != runner || len(starts) != 1 || starts[0] != waiter {
		t.Fatalf("LaunchAndPreempt(500) after Launch(500) = starts %v, suspends %v; want the waiter started over the suspended runner", starts, suspends)
	}
}

func TestPreemptiveValidOnRandomWorkloads(t *testing.T) {
	const procs = 32
	for trial := 0; trial < 8; trial++ {
		jobs := genWorkload(stats.NewRNG(int64(1300+trial)), 200, procs, 1)
		for _, threshold := range []float64{2, 5, 20} {
			s := NewPreemptive(procs, FCFS{}, threshold, 60)
			aud := NewAuditor(procs)
			ps, err := sim.Run(sim.Machine{Procs: procs}, jobs, s, aud.Observer())
			if err != nil {
				t.Fatalf("trial %d threshold %v: %v", trial, threshold, err)
			}
			if err := aud.Err(); err != nil {
				t.Fatalf("trial %d threshold %v: %v", trial, threshold, err)
			}
			if len(ps) != len(jobs) {
				t.Fatalf("lost jobs: %d of %d", len(ps), len(jobs))
			}
			// Every job's elapsed time covers its full runtime.
			for _, p := range ps {
				if p.End-p.Start < p.Job.Runtime {
					t.Fatalf("%v finished too fast: %+v", p.Job, p)
				}
			}
		}
	}
}

func TestPreemptiveActuallyPreempts(t *testing.T) {
	const procs = 32
	preempted := false
	for trial := 0; trial < 8 && !preempted; trial++ {
		jobs := genWorkload(stats.NewRNG(int64(1400+trial)), 250, procs, 1)
		s := NewPreemptive(procs, FCFS{}, 2, 60)
		obs := &sim.Observer{OnSuspend: func(now int64, j *job.Job) { preempted = true }}
		if _, err := sim.Run(sim.Machine{Procs: procs}, jobs, s, obs); err != nil {
			t.Fatal(err)
		}
	}
	if !preempted {
		t.Fatal("threshold 2 never triggered a preemption on busy workloads")
	}
}

func TestPreemptiveImprovesWorstCaseOverEASY(t *testing.T) {
	// On a fixed busy workload, preemption should cut the maximum wide-job
	// delay relative to plain EASY(SJF) (the configuration whose tail
	// Table 4 flags).
	const procs = 32
	jobs := genWorkload(stats.NewRNG(1500), 300, procs, 1)
	maxDelay := func(s sim.Scheduler) int64 {
		aud := NewAuditor(procs)
		ps, err := sim.Run(sim.Machine{Procs: procs}, jobs, s, aud.Observer())
		if err != nil {
			t.Fatal(err)
		}
		if err := aud.Err(); err != nil {
			t.Fatal(err)
		}
		var worst int64
		for _, p := range ps {
			if d := p.End - p.Job.Arrival; d > worst {
				worst = d
			}
		}
		return worst
	}
	easy := maxDelay(NewEASY(procs, SJF{}))
	pre := maxDelay(NewPreemptive(procs, SJF{}, 3, 60))
	if pre > easy {
		t.Fatalf("preemptive worst case %d exceeds EASY's %d", pre, easy)
	}
}
