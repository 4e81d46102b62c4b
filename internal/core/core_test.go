package core

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sim"
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

// TestResultOutlivesNextRun holds a Result to what it read when Run
// returned: a second Run, of another kind, reuses the first's session,
// auditor and metrics scratch, and none of it may show through.
func TestResultOutlivesNextRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // the second Run takes what the first put back
	jobs := smallWorkload(t, 1000, 5)
	first, err := Run(Config{Procs: 128, Scheduler: "conservative", Policy: "SJF", Audit: true}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	placements, outcomes, report, fp := slices.Clone(first.Placements), slices.Clone(first.Outcomes), first.Report, first.Fingerprint
	second, err := Run(Config{Procs: 128, Scheduler: "preemptive:10", Policy: "XF", Audit: true}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if second.Fingerprint == fp {
		t.Fatal("the second run placed the jobs as the first did: it shows nothing")
	}
	if !slices.Equal(first.Placements, placements) || !slices.Equal(first.Outcomes, outcomes) ||
		!reflect.DeepEqual(first.Report, report) || first.Fingerprint != fp {
		t.Fatal("the first Result changed under a second Run")
	}
	if metrics.Fingerprint(first.Placements) != fp {
		t.Fatal("the first Result's placements no longer hash to its fingerprint")
	}
}

// TestSecondRunAllocatesItsResult pins what pooling buys a paper-grid cell:
// once a run of its size has released its session, auditor tables and
// metrics scratch, a cell allocates what its Result keeps — a placement and
// an outcome, 56 B a job — and the engine's own tables, which are not
// pooled: conservative's reservation table and profile, under 32 B a job.
// Without the pools a cell allocated about 410 B a job.
func TestSecondRunAllocatesItsResult(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops pooled items at random")
	}
	// One P, so the measured Run takes what the first put back, and no
	// collection, which would empty the pools under it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, slack = 4000, 32 // slack in bytes a job
	m := mustModel(t)
	jobs := workload.ApplyEstimates(smallWorkload(t, n, 42), workload.Actual{}, 1)
	cfg := Config{Procs: m.Procs, Scheduler: "conservative", Policy: "XF", Audit: true}
	if _, err := Run(cfg, jobs); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg, jobs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	kept := len(res.Placements)*int(unsafe.Sizeof(sim.Placement{})) + len(res.Outcomes)*int(unsafe.Sizeof(metrics.Outcome{}))
	got := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("a second run of %d jobs allocates %d B; its Result keeps %d", n, got, kept)
	if got > kept+slack*n {
		t.Errorf("a second run of %d jobs allocates %d B, %.0f B a job beyond the %d its Result keeps: a per-run array is allocated again",
			n, got, float64(got-kept)/n, kept)
	}
}

// TestConcurrentRunsShareThePools runs cells on several goroutines at once,
// each taking sessions, auditor tables and metrics scratch from the pools
// the others put back: every cell must read as it does run alone.
func TestConcurrentRunsShareThePools(t *testing.T) {
	jobs := smallWorkload(t, 400, 9)
	kinds := []string{"easy", "conservative", "slack:1", "preemptive:10"}
	want := make([]uint64, len(kinds))
	for i, k := range kinds {
		res, err := Run(Config{Procs: 128, Scheduler: k, Policy: "SJF", Audit: true}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Fingerprint
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 2*len(kinds); r++ {
				i := (g + r) % len(kinds)
				res, err := Run(Config{Procs: 128, Scheduler: kinds[i], Policy: "SJF", Audit: true}, jobs)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Fingerprint != want[i] {
					t.Errorf("%s on goroutine %d: fingerprint %x, alone %x", kinds[i], g, res.Fingerprint, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
