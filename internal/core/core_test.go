package core

import (
	"testing"

	"repro/internal/job"
	"repro/internal/workload"
)

// smallWorkload generates a deterministic busy workload on a 64-proc
// machine.
func smallWorkload(t *testing.T, n int, seed int64) []*job.Job {
	t.Helper()
	m := &workload.Model{}
	*m = *mustModel(t)
	jobs, err := m.Generate(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func mustModel(t *testing.T) *workload.Model {
	t.Helper()
	m, err := workload.ByName("SDSC", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunBasic(t *testing.T) {
	jobs := smallWorkload(t, 300, 1)
	res, err := Run(Config{Procs: 128, Scheduler: "easy", Policy: "FCFS", Audit: true}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Overall.N != 300 {
		t.Fatalf("N = %d", res.Report.Overall.N)
	}
	if res.Report.Overall.MeanSlowdown < 1 {
		t.Fatalf("mean slowdown = %v, must be >= 1", res.Report.Overall.MeanSlowdown)
	}
	if res.Report.Scheduler != "EASY(FCFS)" {
		t.Fatalf("scheduler name = %q", res.Report.Scheduler)
	}
	if len(res.Placements) != 300 || len(res.Outcomes) != 300 {
		t.Fatal("missing placements/outcomes")
	}
}

func TestRunDefaults(t *testing.T) {
	jobs := smallWorkload(t, 50, 2)
	res, err := Run(Config{Procs: 128, Scheduler: "conservative"}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Policy != "FCFS" {
		t.Fatalf("default policy = %q", res.Config.Policy)
	}
	if res.Config.Thresholds != job.PaperThresholds() {
		t.Fatal("default thresholds not applied")
	}
}

func TestRunErrors(t *testing.T) {
	jobs := smallWorkload(t, 10, 3)
	cases := []Config{
		{Procs: 0, Scheduler: "easy"},
		{Procs: 128, Scheduler: "bogus"},
		{Procs: 128, Scheduler: "easy", Policy: "NOPE"},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg, jobs); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestSameScheduleEquivalence(t *testing.T) {
	// §4.1: conservative with exact estimates is policy-invariant.
	jobs := workload.ApplyEstimates(smallWorkload(t, 400, 5), workload.Exact{}, 1)
	base, err := Run(Config{Procs: 128, Scheduler: "conservative", Policy: "FCFS", Audit: true}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"SJF", "XF"} {
		other, err := Run(Config{Procs: 128, Scheduler: "conservative", Policy: pol, Audit: true}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !SameSchedule(base, other) {
			t.Fatalf("conservative(%s) schedule differs from FCFS under exact estimates", pol)
		}
	}
	// EASY(SJF) should differ from conservative on a busy trace.
	easy, err := Run(Config{Procs: 128, Scheduler: "easy", Policy: "SJF", Audit: true}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if SameSchedule(base, easy) {
		t.Fatal("EASY(SJF) identical to conservative — suspicious")
	}
}

func TestCompare(t *testing.T) {
	jobs := workload.ApplyEstimates(smallWorkload(t, 500, 7), workload.Exact{}, 1)
	cons, err := Run(Config{Procs: 128, Scheduler: "conservative", Policy: "FCFS", Audit: true}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	easy, err := Run(Config{Procs: 128, Scheduler: "easy", Policy: "SJF", Audit: true}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	cc := Compare(cons, easy)
	if cc.Baseline != "Conservative(FCFS)" || cc.Candidate != "EASY(SJF)" {
		t.Fatalf("labels = %q vs %q", cc.Baseline, cc.Candidate)
	}
	if !cc.OverallOK {
		t.Fatal("overall change not computable")
	}
	okCount := 0
	for _, c := range job.Categories() {
		if cc.PerCatOK[c] {
			okCount++
		}
	}
	if okCount < 3 {
		t.Fatalf("only %d categories populated", okCount)
	}
}

func TestRunMatrix(t *testing.T) {
	jobs := smallWorkload(t, 150, 9)
	rs, err := RunMatrix(128, jobs, []string{"easy", "conservative"}, []string{"FCFS", "SJF"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("results = %d", len(rs))
	}
	for _, want := range []string{"EASY(FCFS)", "EASY(SJF)", "Conservative(FCFS)", "Conservative(SJF)"} {
		if rs[want] == nil {
			t.Errorf("missing %s", want)
		}
	}
	if _, err := RunMatrix(128, jobs, []string{"bogus"}, []string{"FCFS"}); err == nil {
		t.Fatal("bad kind should error")
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	jobs := smallWorkload(t, 200, 11)
	cfg := Config{Procs: 128, Scheduler: "selective:2", Policy: "XF", Audit: true}
	a, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatal("same config+workload produced different schedules")
	}
}

// raceDetector is set by race_test.go in a -race build.
var raceDetector bool

// TestRunAllocsFlatInJobs pins a cell's allocations to its tables, not its
// jobs: the outcome table, the summaries' buffer, the engine's and the
// auditor's per-job records, the schedulers' start lists and the preemption
// phase's lists are each allocated once, so eight times the jobs must cost
// under 1.5 times the allocations. What still grows is the queues'
// doublings. slack:1 is the only kind that fills the guarantee table.
func TestRunAllocsFlatInJobs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes what allocates")
	}
	m := mustModel(t)
	for _, c := range []struct{ kind, pol string }{{"easy", "FCFS"}, {"conservative", "XF"}, {"slack:1", "XF"}, {"preemptive:10", "XF"}, {"depth:4", "SJF"}} {
		var allocs [2]float64
		for i, n := range []int{500, 4000} {
			jobs := workload.ApplyEstimates(smallWorkload(t, n, 42), workload.Actual{}, 1)
			cfg := Config{Procs: m.Procs, Scheduler: c.kind, Policy: c.pol, Audit: true}
			allocs[i] = testing.AllocsPerRun(2, func() {
				if _, err := Run(cfg, jobs); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("%s/%s: %.0f allocations at 500 jobs, %.0f at 4000", c.kind, c.pol, allocs[0], allocs[1])
		if allocs[1] >= 1.5*allocs[0] {
			t.Errorf("%s/%s: %.0f allocations at 500 jobs, %.0f at 4000: a table is allocated per job again",
				c.kind, c.pol, allocs[0], allocs[1])
		}
	}
}
