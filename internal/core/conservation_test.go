package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fullWidthTrace draws n jobs that each take the whole machine: Poisson
// arrivals and exponential runtimes (mean 1 000 s) at load rho, estimates
// between one and two times the runtime, so jobs finish early and the
// schedulers' plans must move.
func fullWidthTrace(n, procs int, rho float64, seed int64) []*job.Job {
	r := stats.NewRNG(seed)
	const meanRuntime = 1000.0
	jobs := make([]*job.Job, n)
	var at float64
	for i := range jobs {
		at += r.ExpFloat64() * meanRuntime / rho
		rt := max(1, int64(math.Round(r.ExpFloat64()*meanRuntime)))
		jobs[i] = &job.Job{ID: i + 1, Arrival: int64(at), Runtime: rt, Estimate: rt + int64(r.Intn(int(rt)+1)), Width: procs}
	}
	return jobs
}

// lindleySum is Σ runtimeᵢ·waitᵢ under FCFS on one server, from Lindley's
// recursion: each job starts once it has arrived and its predecessor has
// finished. No scheduler or event queue is involved.
func lindleySum(jobs []*job.Job) int64 {
	var sum, free int64
	for _, j := range jobs {
		start := max(j.Arrival, free)
		sum += j.Runtime * (start - j.Arrival)
		free = start + j.Runtime
	}
	return sum
}

// TestConservationLawFullWidth is an oracle from outside the simulator.
// When every job takes the whole machine, no job can backfill and the
// machine is one server. Any order that never idles it while a job waits,
// and never interrupts a job, leaves the same unfinished work at every
// instant, so Σ runtimeᵢ·waitᵢ — the integral of the queued work over time
// — is the same integer under every such order (Kleinrock's conservation
// law). Every non-preemptive kind under every policy must therefore read
// exactly the sum Lindley's recursion gives for FCFS, on a trace of 20 000
// jobs at load 0.8.
//
// Two kinds break the premise by design. preemptive:* suspends running
// jobs. conservative-nc never moves a reservation forward, so when a job
// ends before its estimate the machine idles until the next reservation;
// it is held to the law on the same trace with exact estimates instead.
func TestConservationLawFullWidth(t *testing.T) {
	const procs = 8
	jobs := fullWidthTrace(20000, procs, 0.8, 1)
	exact := make([]*job.Job, len(jobs))
	for i, j := range jobs {
		c := *j
		c.Estimate = c.Runtime
		exact[i] = &c
	}
	want := lindleySum(jobs)
	kinds := []string{"depth:4", "selective:2"}
	for _, k := range sched.Kinds() {
		if !strings.HasPrefix(k, "preemptive:") {
			kinds = append(kinds, k)
		}
	}
	for _, kind := range kinds {
		trace := jobs
		if kind == "conservative-nc" {
			trace = exact
		}
		for _, name := range []string{"FCFS", "SJF", "XF"} {
			pol, err := sched.PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			mk, err := sched.MakerFor(kind, pol)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := sim.Run(sim.Machine{Procs: procs}, trace, mk(procs), nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, name, err)
			}
			var got int64
			for _, p := range ps {
				got += p.Job.Runtime * (p.Start - p.Job.Arrival)
			}
			if got != want {
				t.Errorf("%s/%s: Σ runtime·wait = %d, Lindley's FCFS sum %d", kind, name, got, want)
			}
		}
	}
}
