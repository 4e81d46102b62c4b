// End-to-end checks of the schedulers through the event engine: every
// registered kind under the invariant auditor, and easy and conservative
// against the brute-force references of reference_test.go. This lives in
// the external test package because internal/audit, which the fuzzer runs
// every kind under, imports sched.
package sched_test

import (
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// referencePolicies are the paper's three priority policies, the ones the
// references implement.
var referencePolicies = []string{"FCFS", "SJF", "XF"}

// referenceMismatch runs jobs through sched's easy and conservative under
// policy pol and reports the first job whose start differs from the
// reference's, or nil when every start agrees.
func referenceMismatch(procs int, pol string, jobs []*job.Job) error {
	p, err := sched.PolicyByName(pol)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		s   sim.Scheduler
		ref func(int, string, []*job.Job) map[int]int64
	}{
		{sched.NewEASY(procs, p), easyReference},
		{sched.NewConservative(procs, p), conservativeReference},
	} {
		ps, err := sim.Run(sim.Machine{Procs: procs}, jobs, c.s, nil)
		if err != nil {
			return fmt.Errorf("%s: %v", c.s.Name(), err)
		}
		want := c.ref(procs, pol, jobs)
		for _, pl := range ps {
			if w := want[pl.Job.ID]; pl.Start != w {
				return fmt.Errorf("%s: job %d starts at %d, the reference says %d", c.s.Name(), pl.Job.ID, pl.Start, w)
			}
		}
	}
	return nil
}

// TestReferenceExhaustive compares easy and conservative with the
// references on every 3-job workload on 4 processors: width 1–4, runtime
// 1–2, estimate from the runtime to 3, and non-decreasing arrivals in 0–2
// — 80 000 workloads under each policy.
func TestReferenceExhaustive(t *testing.T) {
	const procs, n = 4, 3
	// shapes are the 20 (width, runtime, estimate) choices for one job.
	var shapes [][3]int64
	for w := int64(1); w <= procs; w++ {
		for rt := int64(1); rt <= 2; rt++ {
			for est := rt; est <= 3; est++ {
				shapes = append(shapes, [3]int64{w, rt, est})
			}
		}
	}
	var arrivals [][n]int64
	for a := int64(0); a <= 2; a++ {
		for b := a; b <= 2; b++ {
			for c := b; c <= 2; c++ {
				arrivals = append(arrivals, [n]int64{a, b, c})
			}
		}
	}
	for _, pol := range referencePolicies {
		t.Run(pol, func(t *testing.T) {
			t.Parallel()
			var js [n]job.Job
			jobs := []*job.Job{&js[0], &js[1], &js[2]}
			count, bad := 0, 0
			for _, arr := range arrivals {
				for _, a := range shapes {
					for _, b := range shapes {
						for _, c := range shapes {
							for i, sh := range [n][3]int64{a, b, c} {
								js[i] = job.Job{ID: i + 1, Arrival: arr[i], Width: int(sh[0]), Runtime: sh[1], Estimate: sh[2]}
							}
							count++
							if err := referenceMismatch(procs, pol, jobs); err != nil {
								if bad++; bad <= 5 {
									t.Errorf("%v\nworkload: %v", err, jobs)
								}
							}
						}
					}
				}
			}
			if count != 80000 || bad > 0 {
				t.Errorf("%d of %d workloads disagree", bad, count)
			}
		})
	}
}

// TestReferenceRandom compares easy and conservative with the references
// on 500 random workloads under each policy: 8 processors, 3–30 jobs,
// arrival gaps 0–29, runtimes 1–60, and estimates exact or up to 4× the
// runtime.
func TestReferenceRandom(t *testing.T) {
	const procs = 8
	r := stats.NewRNG(1001)
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(28) + 3
		jobs := make([]*job.Job, 0, n)
		clock := int64(0)
		for i := 1; i <= n; i++ {
			clock += int64(r.Intn(30))
			rt := int64(r.Intn(60) + 1)
			est := rt
			if r.Intn(2) == 0 {
				est += int64(r.Intn(int(3*rt) + 1))
			}
			jobs = append(jobs, &job.Job{ID: i, Arrival: clock, Runtime: rt, Estimate: est, Width: r.Intn(procs) + 1})
		}
		for _, pol := range referencePolicies {
			if err := referenceMismatch(procs, pol, jobs); err != nil {
				t.Fatalf("trial %d: %v\nworkload: %v", trial, err, jobs)
			}
		}
	}
}

// decodeWorkload turns fuzz bytes into a machine size and a small job set:
// byte 0 picks the processor count, then each 4-byte group is one job
// (arrival delta, runtime, estimate overrun, width). A zero overrun byte
// yields an exact estimate.
func decodeWorkload(data []byte) (int, []*job.Job) {
	if len(data) == 0 {
		return 0, nil
	}
	procs := int(data[0]%13) + 4 // 4..16
	data = data[1:]
	const maxJobs = 24
	var jobs []*job.Job
	clock := int64(0)
	for i := 0; i+3 < len(data) && len(jobs) < maxJobs; i += 4 {
		clock += int64(data[i] % 50)
		rt := int64(data[i+1]%120) + 1
		jobs = append(jobs, &job.Job{
			ID:       len(jobs) + 1,
			Arrival:  clock,
			Runtime:  rt,
			Estimate: rt + int64(data[i+2]%60),
			Width:    int(data[i+3])%procs + 1,
		})
	}
	return procs, jobs
}

// FuzzSchedulerRun runs each decoded workload through every registered
// scheduler kind under the audit wrapper: any invariant violation, engine
// error, or panic fails the input. Then easy and conservative must start
// every job when the references say, under FCFS, SJF and XF.
func FuzzSchedulerRun(f *testing.F) {
	// The canonical backfill scenario (exact estimates, 10 processors).
	f.Add([]byte("\x06\x00\x63\x00\x05\x01\x63\x00\x05\x01\x31\x00\x03"))
	// Overestimated runtimes: compression and kill-at-estimate paths fire.
	f.Add([]byte("\x0c\x00\x20\x10\x07\x05\x40\x3b\x03\x02\x08\x2c\x01\x09\x50\x1e\x06"))
	// Degenerate: smallest machine, one unit job.
	f.Add([]byte("\x00\x00\x00\x00\x00"))
	fcfs, err := sched.PolicyByName("FCFS")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		procs, jobs := decodeWorkload(data)
		if len(jobs) == 0 {
			t.Skip()
		}
		for _, kind := range sched.Kinds() {
			mk, err := sched.MakerFor(kind, fcfs)
			if err != nil {
				t.Fatal(err)
			}
			_, rep, err := audit.Run(procs, jobs, mk(procs), audit.OptionsForKind(kind, fcfs))
			if err != nil {
				t.Fatalf("%s: engine: %v\nworkload (procs=%d): %v", kind, err, procs, jobs)
			}
			if err := rep.Err(); err != nil {
				t.Fatalf("%s: %v\nworkload (procs=%d): %v", kind, err, procs, jobs)
			}
		}
		for _, pol := range referencePolicies {
			if err := referenceMismatch(procs, pol, jobs); err != nil {
				t.Fatalf("%v\nworkload (procs=%d): %v", err, procs, jobs)
			}
		}
	})
}
