package core

import (
	"math"
	"testing"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The closed-form half of the queueing oracle: mean waits held to M/M/1,
// M/G/1 (Pollaczek–Khinchine) and M/M/c (Erlang C), on traces drawn from
// internal/stats' distributions. TestConservationLawFullWidth holds every
// engine to Lindley's recursion on one trace, so a generator that is wrong
// on both sides passes it; here the reference is theory.
//
// Tolerances come from batch means: the jobs, in arrival order, fall into
// queueBatches+1 batches of equal size, the first is dropped as warm-up
// (the machine starts empty), and an estimate must lie within queueZ
// standard errors of its closed form, the standard error being the spread
// of the remaining batch means over √queueBatches. The seeds, sizes and
// loads below were fixed before any run.
//
// The arrival gaps and runtimes are held to their distributions' means the
// same way: the closed forms take them as inputs, and a generator that
// scales every exponential alike moves a wait by only that factor.
const (
	queueBatches = 32
	queueZ       = 4.0 // P(|t₃₁| > 4) ≈ 4·10⁻⁴ a check
	queueJobs    = (queueBatches + 1) * 625
)

// fcfsKinds are the kinds that, under FCFS with exact estimates, start jobs
// in arrival order and never idle a processor a waiting job could use, the
// premise of the closed forms. Left out: preemptive:* suspends running jobs,
// so a job's wait is not its time before service; slack:* lets an arrival
// displace an earlier job's window, and selective:* grants a window to
// whichever job's expansion factor crosses first — both order service by
// estimates, which are runtimes here, and a service order that depends on
// runtimes changes the mean wait (not Σ runtime·wait).
var fcfsKinds = []string{"none", "easy", "easy:bestfit", "easy:shortestfit", "depth:2", "conservative", "conservative-nc"}

// poissonTrace draws queueJobs jobs of the given width with exponential
// gaps of mean gap and runtimes from service, in whole seconds, with exact
// estimates.
func poissonTrace(t *testing.T, seed int64, gap float64, service stats.Dist, width int) []*job.Job {
	t.Helper()
	r := stats.NewRNG(seed)
	arrivals := stats.Exponential{M: gap}
	jobs := make([]*job.Job, queueJobs)
	gaps := make([]float64, queueJobs)
	runtimes := make([]float64, queueJobs)
	var at float64
	for i := range jobs {
		gaps[i] = arrivals.Sample(r)
		at += gaps[i]
		runtimes[i] = service.Sample(r)
		rt := max(1, int64(math.Round(runtimes[i])))
		jobs[i] = &job.Job{ID: i + 1, Arrival: int64(at), Runtime: rt, Estimate: rt, Width: width}
	}
	holdTo(t, "mean arrival gap", gaps, gap)
	holdTo(t, "mean runtime", runtimes, service.Mean())
	return jobs
}

// holdTo fails unless the batch-means estimate of xs' mean lies within
// queueZ standard errors of want.
func holdTo(t *testing.T, what string, xs []float64, want float64) {
	t.Helper()
	size := len(xs) / (queueBatches + 1)
	var batches stats.Accumulator
	for b := 1; b <= queueBatches; b++ {
		batches.Add(stats.Mean(xs[b*size : (b+1)*size]))
	}
	got, se := batches.Mean(), batches.StdDev()/math.Sqrt(queueBatches)
	t.Logf("%s = %.1f ± %.1f, closed form %.1f (%+.2f σ)", what, got, se, want, (got-want)/se)
	if math.Abs(got-want) > queueZ*se {
		t.Errorf("%s = %.1f ± %.1f (one standard error), closed form %.1f: off by %.1f σ", what, got, se, want, math.Abs(got-want)/se)
	}
}

// holdWaits runs the trace under every FCFS-order kind and holds each
// kind's mean wait to want.
func holdWaits(t *testing.T, procs int, jobs []*job.Job, want float64) {
	t.Helper()
	pol, err := sched.PolicyByName("FCFS")
	if err != nil {
		t.Fatal(err)
	}
	waits := make([]float64, len(jobs))
	for _, kind := range fcfsKinds {
		mk, err := sched.MakerFor(kind, pol)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := sim.Run(sim.Machine{Procs: procs}, jobs, mk(procs), nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for _, p := range ps {
			waits[p.Job.ID-1] = float64(p.Start - p.Job.Arrival)
		}
		holdTo(t, kind+" mean wait", waits, want)
	}
}

// TestMM1MeanWait: full-width jobs make the machine one server. Poisson
// arrivals and exponential runtimes of mean 1 000 s at load 0.7 give
// Wq = ρ·E[S]/(1−ρ) ≈ 2 333 s.
func TestMM1MeanWait(t *testing.T) {
	const procs, rho, mean = 8, 0.7, 1000.0
	jobs := poissonTrace(t, 1, mean/rho, stats.Exponential{M: mean}, procs)
	holdWaits(t, procs, jobs, rho*mean/(1-rho))
}

// TestMG1MeanWait: full-width jobs with hyper-exponential runtimes (mean
// 1 000 s, squared coefficient of variation 3; the phases are unequally
// likely, so swapping them shows) at load 0.6. Pollaczek–Khinchine:
// Wq = λ·E[S²]/(2(1−ρ)) = 3 000 s.
func TestMG1MeanWait(t *testing.T) {
	const procs, rho = 8, 0.6
	service := stats.HyperExp{P: 0.8, M1: 500, M2: 3000}
	second := 2 * (service.P*service.M1*service.M1 + (1-service.P)*service.M2*service.M2)
	lambda := rho / service.Mean()
	jobs := poissonTrace(t, 2, 1/lambda, service, procs)
	holdWaits(t, procs, jobs, lambda*second/(2*(1-rho)))
}

// TestErlangCMeanWait: width-1 jobs on c = 8 processors are an M/M/c queue.
// Exponential runtimes of mean 1 000 s at load 0.8 a processor give
// offered load a = 6.4 and Wq = C(c, a)·E[S]/(c − a), C being Erlang's
// probability of waiting.
func TestErlangCMeanWait(t *testing.T) {
	const c, rho, mean = 8, 0.8, 1000.0
	a := c * rho
	jobs := poissonTrace(t, 3, mean/a, stats.Exponential{M: mean}, 1)
	// Σ_{k<c} aᵏ/k!, then the waiting term aᶜ/c!·c/(c−a).
	sum, term := 0.0, 1.0
	for k := 0; k < c; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	wait := term * c / (c - a)
	holdWaits(t, c, jobs, wait/(sum+wait)*mean/(c-a))
}
