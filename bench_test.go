// Package repro's benchmarks regenerate every table and figure of the
// paper (one benchmark per artifact — see DESIGN.md's experiment index) and
// measure the simulator's hot paths: the availability profile, the event
// queue, conservative compression, and each scheduler end to end.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Artifact benchmarks use a reduced job count so a full sweep stays fast;
// cmd/experiments regenerates the artifacts at full scale.
package repro

import (
	"context"
	"io"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// benchParams sizes the per-artifact benchmarks.
func benchParams() exp.Params {
	p := exp.DefaultParams()
	p.Jobs = 800
	return p
}

// benchExperiment regenerates one paper artifact per iteration, its
// declared cells and its render, through RunExperiments on one worker and
// a fresh lab (nothing carried across iterations, so the cost measured is
// the real regeneration cost).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lab, err := exp.NewLab(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		tables, err := exp.RunExperiments(context.Background(), lab, []exp.Experiment{e}, runner.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			if err := t.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable1(b *testing.B)      { benchExperiment(b, "Table1") }
func BenchmarkTable2(b *testing.B)      { benchExperiment(b, "Table2") }
func BenchmarkTable3(b *testing.B)      { benchExperiment(b, "Table3") }
func BenchmarkFigure1(b *testing.B)     { benchExperiment(b, "Figure1") }
func BenchmarkFigure2(b *testing.B)     { benchExperiment(b, "Figure2") }
func BenchmarkTable4(b *testing.B)      { benchExperiment(b, "Table4") }
func BenchmarkTable5(b *testing.B)      { benchExperiment(b, "Table5") }
func BenchmarkTable6(b *testing.B)      { benchExperiment(b, "Table6") }
func BenchmarkFigure3(b *testing.B)     { benchExperiment(b, "Figure3") }
func BenchmarkFigure4(b *testing.B)     { benchExperiment(b, "Figure4") }
func BenchmarkTable7(b *testing.B)      { benchExperiment(b, "Table7") }
func BenchmarkEquivalence(b *testing.B) { benchExperiment(b, "Equivalence") }
func BenchmarkSelective(b *testing.B)   { benchExperiment(b, "Selective") }
func BenchmarkLoadSweep(b *testing.B)   { benchExperiment(b, "LoadSweep") }

func BenchmarkDepthSweep(b *testing.B)          { benchExperiment(b, "DepthSweep") }
func BenchmarkSlackSweep(b *testing.B)          { benchExperiment(b, "SlackSweep") }
func BenchmarkCompressionAblation(b *testing.B) { benchExperiment(b, "CompressionAblation") }
func BenchmarkFairness(b *testing.B)            { benchExperiment(b, "Fairness") }

func BenchmarkConfidence(b *testing.B)      { benchExperiment(b, "Confidence") }
func BenchmarkBurstiness(b *testing.B)      { benchExperiment(b, "Burstiness") }
func BenchmarkBackfillOrder(b *testing.B)   { benchExperiment(b, "BackfillOrder") }
func BenchmarkSignificance(b *testing.B)    { benchExperiment(b, "Significance") }
func BenchmarkPreemption(b *testing.B)      { benchExperiment(b, "Preemption") }
func BenchmarkPolicyMatrix(b *testing.B)    { benchExperiment(b, "PolicyMatrix") }
func BenchmarkPartitioning(b *testing.B)    { benchExperiment(b, "Partitioning") }
func BenchmarkLoadConsistency(b *testing.B) { benchExperiment(b, "LoadConsistency") }
func BenchmarkMultiSite(b *testing.B)       { benchExperiment(b, "MultiSite") }
func BenchmarkDistribution(b *testing.B)    { benchExperiment(b, "Distribution") }

func BenchmarkSchedulerPreemptive(b *testing.B) { benchScheduler(b, "preemptive:10", "FCFS") }

func BenchmarkSchedulerDepth4(b *testing.B) { benchScheduler(b, "depth:4", "FCFS") }
func BenchmarkSchedulerSlack1(b *testing.B) { benchScheduler(b, "slack:1", "FCFS") }

// --- Scheduler end-to-end ablation -----------------------------------------

// benchWorkload builds a fixed 2000-job CTC-model workload with actual
// estimates.
func benchWorkload(b *testing.B) ([]*job.Job, int) {
	b.Helper()
	m, err := workload.NewCTC(0.85)
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := m.Generate(2000, 42)
	if err != nil {
		b.Fatal(err)
	}
	return workload.ApplyEstimates(jobs, workload.Actual{}, 43), m.Procs
}

func benchScheduler(b *testing.B, kind, pol string) {
	b.Helper()
	jobs, procs := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{Procs: procs, Scheduler: kind, Policy: pol}, jobs)
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Overall.N != len(jobs) {
			b.Fatal("lost jobs")
		}
	}
}

// BenchmarkBatchRun and BenchmarkSessionStep measure the same workload
// through the two faces of the engine: the batch wrapper (sim.Run, what
// every experiment uses) and the incremental session driven one Step at a
// time (what the online service does). Batch is the regression guard for
// the Session refactor: the wrapper must stay within noise of the old
// monolithic loop, and stepping must not cost materially more than
// draining.
func benchSession(b *testing.B, stepwise bool) {
	b.Helper()
	jobs, procs := benchWorkload(b)
	mk, err := sched.MakerFor("easy", sched.FCFS{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ps []sim.Placement
		if stepwise {
			ss, err := sim.Open(sim.Machine{Procs: procs}, mk(procs), nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, j := range jobs {
				if err := ss.Submit(j); err != nil {
					b.Fatal(err)
				}
			}
			for {
				ok, err := ss.Step()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
			}
			if ps, err = ss.Finish(); err != nil {
				b.Fatal(err)
			}
		} else {
			if ps, err = sim.Run(sim.Machine{Procs: procs}, jobs, mk(procs), nil); err != nil {
				b.Fatal(err)
			}
		}
		if len(ps) != len(jobs) {
			b.Fatal("lost jobs")
		}
	}
}

func BenchmarkBatchRun(b *testing.B)    { benchSession(b, false) }
func BenchmarkSessionStep(b *testing.B) { benchSession(b, true) }

func BenchmarkSchedulerNoBackfill(b *testing.B)   { benchScheduler(b, "none", "FCFS") }
func BenchmarkSchedulerEASY(b *testing.B)         { benchScheduler(b, "easy", "FCFS") }
func BenchmarkSchedulerEASYSJF(b *testing.B)      { benchScheduler(b, "easy", "SJF") }
func BenchmarkSchedulerConservative(b *testing.B) { benchScheduler(b, "conservative", "FCFS") }
func BenchmarkSchedulerSelective(b *testing.B)    { benchScheduler(b, "selective:2", "FCFS") }

// BenchmarkStudyGrid is the benchmark's study workload (benchmark/study.go)
// without the benchmark module: CTC and SDSC at load 0.9, 4 000 jobs a trace
// drawn from stream seed 42 with Actual estimates from seed 1's draw, each
// through core.Run with the auditor on under FCFS, SJF and XF. One
// sub-benchmark per scheduler kind runs that kind's six cells an iteration,
// so `make bench` shows which kind a regression is in; us/job, allocs/job and
// B/job divide by the 24 000 jobs an iteration simulates, and FCFS-us/job,
// SJF-us/job and XF-us/job time each policy's two cells alone, so a
// regression in one policy is not averaged away. retained-B/job is
// the heap the last iteration's six results still hold after a collection
// (the traces they point into excluded), divided by their jobs: what each
// job costs a caller that keeps its results. Each of the engine's
// sched.WorkCounts follows, a job, under its debug-stats key: where a
// change in us/job comes from.
func BenchmarkStudyGrid(b *testing.B) {
	type trace struct {
		procs int
		jobs  []*job.Job
	}
	var traces []trace
	root := stats.NewRNG(1)
	for _, name := range []string{"CTC", "SDSC"} {
		estSeed := root.Int63()
		m, err := workload.ByName(name, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		jobs, err := m.Generate(4000, 42)
		if err != nil {
			b.Fatal(err)
		}
		traces = append(traces, trace{m.Procs, workload.ApplyEstimates(jobs, workload.Actual{}, estSeed)})
	}
	policies := []string{"FCFS", "SJF", "XF"}
	for _, kind := range []string{"none", "easy", "conservative", "depth:4", "slack:1", "selective:2", "preemptive:10"} {
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			kept := make([]*core.Result, 0, len(traces)*len(policies))
			runtime.ReadMemStats(&before)
			perIter := 0
			spent := make([]time.Duration, len(policies))
			work := make([]int64, len(sched.WorkCounts{}.Named()))
			for i := 0; i < b.N; i++ {
				perIter, kept = 0, kept[:0]
				for _, tr := range traces {
					for p, pol := range policies {
						t0 := time.Now()
						res, err := core.Run(core.Config{Procs: tr.procs, Scheduler: kind, Policy: pol, Audit: true}, tr.jobs)
						spent[p] += time.Since(t0)
						if err != nil {
							b.Fatal(err)
						}
						if len(res.Placements) != len(tr.jobs) {
							b.Fatal("lost jobs")
						}
						perIter += len(tr.jobs)
						kept = append(kept, res)
						for k, c := range res.Work.Named() {
							work[k] += c.N
						}
					}
				}
			}
			runtime.ReadMemStats(&after)
			jobs := float64(b.N * perIter)
			b.ReportMetric(b.Elapsed().Seconds()*1e6/jobs, "us/job")
			for p, pol := range policies {
				b.ReportMetric(spent[p].Seconds()*1e6*float64(len(policies))/jobs, pol+"-us/job")
			}
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/jobs, "allocs/job")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/jobs, "B/job")
			b.ReportMetric(float64(retainedBytes(&kept))/float64(perIter), "retained-B/job")
			for k, c := range (sched.WorkCounts{}).Named() {
				b.ReportMetric(float64(work[k])/jobs, c.Name+"/job")
			}
		})
	}
}

// retainedBytes is the live heap that the results in *kept hold alone: the
// heap after a collection, less the heap after another once *kept is
// dropped.
func retainedBytes(kept *[]*core.Result) uint64 {
	var held, freed runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&held)
	*kept = nil
	runtime.GC()
	runtime.ReadMemStats(&freed)
	return held.HeapAlloc - freed.HeapAlloc
}

// BenchmarkAnalyzeOutcomes is the metrics layer of one study cell: the
// report core.Run builds from the placements and outcomes of CTC at load
// 0.9, 4 000 jobs, under easy/FCFS.
func BenchmarkAnalyzeOutcomes(b *testing.B) {
	m, err := workload.ByName("CTC", 0.9)
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := m.Generate(4000, 42)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Run(core.Config{Procs: m.Procs, Scheduler: "easy", Policy: "FCFS"}, workload.ApplyEstimates(jobs, workload.Actual{}, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := metrics.AnalyzeOutcomes(res.Report.Scheduler, res.Placements, res.Outcomes, m.Procs)
		if rep.Overall.N != len(jobs) {
			b.Fatal("lost jobs")
		}
	}
}

// BenchmarkCompression stresses conservative backfilling's compression
// path: R=4 estimates mean every completion opens a hole and re-places the
// whole queue.
func BenchmarkCompression(b *testing.B) {
	m, err := workload.NewCTC(0.9)
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := m.Generate(1500, 7)
	if err != nil {
		b.Fatal(err)
	}
	jobs = workload.ApplyEstimates(jobs, workload.Systematic{R: 4}, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.Config{Procs: m.Procs, Scheduler: "conservative"}, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Standing-queue write path ----------------------------------------------

// deepQueueScheduler parks a standing queue of depth wide jobs behind a
// blocker that owns the whole machine, with the pass memo established — the
// state an online daemon sits in whenever demand exceeds capacity.
func deepQueueScheduler(b *testing.B, depth int) (*sched.EASY, int64) {
	b.Helper()
	s := sched.NewEASY(64, sched.FCFS{})
	s.Arrive(0, &job.Job{ID: 1, Runtime: 1 << 40, Estimate: 1 << 40, Width: 64})
	if got := s.Launch(0); len(got) != 1 {
		b.Fatal("blocker did not start")
	}
	for i := 0; i < depth; i++ {
		s.Arrive(1, &job.Job{ID: 2 + i, Arrival: 1, Runtime: 600, Estimate: 900, Width: 32})
	}
	if got := s.Launch(1); got != nil {
		b.Fatal("standing queue started jobs")
	}
	return s, 2
}

// BenchmarkSchedulerNoopLaunch measures the provably-futile pass (DESIGN.md
// §15): a blocked head, a deep standing queue, no events since the last
// completed pass. Before the pass memo this cost an O(depth) sort-and-scan
// per wakeup; the memo answers it in O(1) with zero allocations
// (TestLaunchNoopAllocs pins the allocation half per scheduler kind).
func BenchmarkSchedulerNoopLaunch(b *testing.B) {
	s, now := deepQueueScheduler(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Launch(now) != nil {
			b.Fatal("no-op pass started a job")
		}
		now++
	}
}

// BenchmarkSchedulerDeepQueueSubmit measures the per-submission write cost
// at a standing queue of ~1024: one arrival (ordered insert under a
// time-invariant policy) plus the arrivals-only incremental pass that
// evaluates just the new job against the cached head reservation. The
// scheduler is rebuilt every few thousand iterations (off the timer) so the
// measured depth stays near its nominal value.
func BenchmarkSchedulerDeepQueueSubmit(b *testing.B) {
	var s *sched.EASY
	var now int64
	id, budget := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if budget == 0 {
			b.StopTimer()
			s, now = deepQueueScheduler(b, 1024)
			id, budget = 2000, 4096
			b.StartTimer()
		}
		id++
		budget--
		s.Arrive(now, &job.Job{ID: id, Arrival: now, Runtime: 600, Estimate: 900, Width: 32})
		if s.Launch(now) != nil {
			b.Fatal("blocked queue started a job")
		}
	}
}

// --- Profile micro-benchmarks and the slice-vs-dense ablation ----------------

// buildBusyProfile fills a profile with n staggered reservations.
func buildBusyProfile(procs, n int) *sched.Profile {
	p := sched.NewProfile(procs)
	r := stats.NewRNG(1)
	for i := 0; i < n; i++ {
		from := int64(r.Intn(100000))
		dur := int64(r.Intn(5000) + 100)
		w := r.Intn(procs/4) + 1
		if p.FindStart(from, dur, w) == from {
			p.Reserve(from, dur, w)
		}
	}
	return p
}

func BenchmarkProfileFindStart(b *testing.B) {
	p := buildBusyProfile(430, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.FindStart(int64(i%100000), 3600, 64)
	}
}

func BenchmarkProfileReserveRelease(b *testing.B) {
	// The busy region [0, ~105000) gives the profile a realistic point
	// count; the measured reserve/release pairs land beyond it so they are
	// always feasible regardless of b.N.
	p := buildBusyProfile(430, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := 200000 + int64((i*97)%1000)*10
		p.Reserve(from, 1000, 8)
		p.Release(from, 1000, 8)
	}
}

// denseProfile is the ablation baseline: a per-second free-processor array.
// It answers the same FindStart query by brute force, showing why the
// step-function profile is the right structure (DESIGN.md decision 2).
type denseProfile struct {
	free []int
}

func newDenseProfile(procs int, horizon int64) *denseProfile {
	f := make([]int, horizon)
	for i := range f {
		f[i] = procs
	}
	return &denseProfile{free: f}
}

func (d *denseProfile) reserve(from, dur int64, w int) {
	for t := from; t < from+dur && t < int64(len(d.free)); t++ {
		d.free[t] -= w
	}
}

func (d *denseProfile) findStart(from, dur int64, w int) int64 {
search:
	for s := from; s < int64(len(d.free)); s++ {
		for t := s; t < s+dur; t++ {
			if t < int64(len(d.free)) && d.free[t] < w {
				continue search
			}
		}
		return s
	}
	return int64(len(d.free))
}

// BenchmarkProfileFindStartDenseAblation pits the two availability
// representations against each other on an identical reservation pattern
// and query stream: the brute-force per-second free array above (the
// ablation baseline of DESIGN.md decision 2) and the step-function
// Profile ("steps"); "dense" shows what the naive representation would
// cost for the very same questions.
func BenchmarkProfileFindStartDenseAblation(b *testing.B) {
	const (
		procs   = 430
		horizon = 200000
	)
	build := func() (*denseProfile, *sched.Profile) {
		d := newDenseProfile(procs, horizon)
		p := sched.NewProfile(procs)
		r := stats.NewRNG(1)
		for i := 0; i < 400; i++ {
			from := int64(r.Intn(100000))
			dur := int64(r.Intn(5000) + 100)
			w := r.Intn(32) + 1
			if p.FindStart(from, dur, w) == from {
				p.Reserve(from, dur, w)
				d.reserve(from, dur, w)
			}
		}
		return d, p
	}
	b.Run("dense", func(b *testing.B) {
		d, _ := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.findStart(int64(i%100000), 3600, 64)
		}
	})
	b.Run("steps", func(b *testing.B) {
		_, p := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.FindStart(int64(i%100000), 3600, 64)
		}
	})
}

// --- Event queue -------------------------------------------------------------

// BenchmarkEventQueue pushes 1 024 events and pops them all, once in
// random order (the heap) and once in arrival order (the arrival run, as a
// batch run submits its trace).
func BenchmarkEventQueue(b *testing.B) {
	r := stats.NewRNG(5)
	j := &job.Job{ID: 1}
	random := make([]int64, 1024)
	for i := range random {
		random[i] = int64(r.Intn(1 << 20))
	}
	sorted := slices.Clone(random)
	slices.Sort(sorted)
	for _, c := range []struct {
		name  string
		times []int64
	}{{"random", random}, {"sorted", sorted}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := sim.NewEventQueue()
				for _, t := range c.times {
					q.Push(t, sim.Arrival, j)
				}
				for q.Len() > 0 {
					q.Pop()
				}
			}
		})
	}
}

// --- Categorization ------------------------------------------------------------

func BenchmarkCategorize(b *testing.B) {
	jobs, _ := benchWorkload(b)
	th := job.PaperThresholds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := job.CategoryMix(jobs, th)
		if m[job.ShortNarrow] == 0 {
			b.Fatal("empty mix")
		}
	}
}

// --- Workload generation ----------------------------------------------------------

func BenchmarkWorkloadGenerate(b *testing.B) {
	m, err := workload.NewCTC(0.85)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Generate(2000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateModels compares the estimate rewriters.
func BenchmarkEstimateModels(b *testing.B) {
	jobs, _ := benchWorkload(b)
	for _, em := range []workload.EstimateModel{
		workload.Exact{}, workload.Systematic{R: 2}, workload.Actual{},
	} {
		b.Run(em.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := workload.ApplyEstimates(jobs, em, int64(i))
				if len(out) != len(jobs) {
					b.Fatal("lost jobs")
				}
			}
		})
	}
}

// --- Parallel execution engine ---------------------------------------------

// benchSweepDesign is a 24-cell factorial (2 schedulers × 3 policies × 2
// estimate models × 2 loads) over one SDSC-model workload: the serial vs
// parallel pair below measures the runner's worker-pool speedup.
func benchSweepDesign(b *testing.B) sweep.Design {
	b.Helper()
	m, err := workload.NewSDSC(0.8)
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := m.Generate(500, 42)
	if err != nil {
		b.Fatal(err)
	}
	return sweep.Design{
		Workloads:  []sweep.Workload{{Name: "SDSC", Jobs: jobs, Procs: m.Procs}},
		Schedulers: []string{"conservative", "easy"},
		Policies:   []string{"FCFS", "SJF", "XF"},
		Estimates:  []string{"exact", "R=2"},
		Loads:      []float64{0.7, 0.9},
		Seed:       42,
	}
}

func benchSweep(b *testing.B, workers int) {
	d := benchSweepDesign(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := sweep.RunWith(context.Background(), d, sweep.Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != 24 {
			b.Fatalf("records = %d, want 24", len(recs))
		}
	}
}

func BenchmarkSweep24CellsSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweep24CellsParallel(b *testing.B) { benchSweep(b, runtime.NumCPU()) }
