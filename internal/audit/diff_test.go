package audit

import (
	"testing"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/stats"
)

// randomWorkload builds a small random job set. exactEst forces estimate ==
// runtime; otherwise estimates overrun runtimes by a random factor.
func randomWorkload(r *stats.RNG, procs, maxJobs int, exactEst bool) []*job.Job {
	n := r.Intn(maxJobs-2) + 3
	jobs := make([]*job.Job, 0, n)
	clock := int64(0)
	for i := 1; i <= n; i++ {
		clock += int64(r.Intn(30))
		rt := int64(r.Intn(60) + 1)
		est := rt
		if !exactEst {
			est = rt + int64(r.Intn(int(rt)*3+1))
		}
		jobs = append(jobs, &job.Job{
			ID: i, Arrival: clock, Runtime: rt, Estimate: est,
			Width: r.Intn(procs) + 1,
		})
	}
	return jobs
}

// TestDifferentialRandomExact is the acceptance gate: on 500 random
// workloads with exact estimates, every audited cell must be clean and all
// relational invariants — §4.1 policy-invariance, conservative ≡
// conservative-nc ≡ slack:0, depth:1 ≡ preemptive:1e18 ≡ easy — must hold.
func TestDifferentialRandomExact(t *testing.T) {
	const procs = 8
	opt := DiffOptions{
		Schedulers: []string{
			"conservative", "conservative-nc", "easy", "easy:bestfit",
			"easy:shortestfit", "none", "depth:1", "slack:0", "preemptive:1e18",
		},
		Policies: []string{"FCFS", "SJF"},
	}
	r := stats.NewRNG(2024)
	for trial := 0; trial < 500; trial++ {
		jobs := randomWorkload(r, procs, 20, true)
		rep, err := Differential(procs, jobs, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !rep.Exact {
			t.Fatalf("trial %d: workload not detected as exact", trial)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("trial %d: %v\nworkload: %v", trial, err, jobs)
		}
	}
}

// TestDifferentialRandomInexact exercises the full scheduler registry —
// preemption, selective promotion, lookahead, slack — under overestimated
// runtimes, where compression, shadow recomputation and kill-at-estimate
// semantics all fire.
func TestDifferentialRandomInexact(t *testing.T) {
	const procs = 8
	opt := DiffOptions{
		// The registry's kinds plus the degenerate members of three
		// families, which crossCheck holds equal to easy and conservative.
		Schedulers: append(sched.Kinds(), "depth:1", "slack:0", "preemptive:1e18"),
		Policies:   []string{"FCFS", "XF"},
	}
	r := stats.NewRNG(2025)
	for trial := 0; trial < 200; trial++ {
		jobs := randomWorkload(r, procs, 16, false)
		rep, err := Differential(procs, jobs, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if rep.Exact {
			continue // rare all-exact draw: still fine, just not the target
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("trial %d: %v\nworkload: %v", trial, err, jobs)
		}
	}
}

func TestDifferentialSetupErrors(t *testing.T) {
	jobs := []*job.Job{exact(1, 0, 10, 1)}
	if _, err := Differential(0, jobs, DiffOptions{}); err == nil {
		t.Errorf("procs 0 accepted")
	}
	if _, err := Differential(4, jobs, DiffOptions{Schedulers: []string{"bogus"}}); err == nil {
		t.Errorf("unknown scheduler kind accepted")
	}
	if _, err := Differential(4, jobs, DiffOptions{Policies: []string{"bogus"}}); err == nil {
		t.Errorf("unknown policy accepted")
	}
}
