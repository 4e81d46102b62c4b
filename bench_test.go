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
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/job"
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

// benchExperiment runs one paper artifact per iteration on a fresh lab (no
// caching across iterations, so the cost measured is the real regeneration
// cost).
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
		tables, err := e.Run(lab)
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
// so `make bench` shows which kind a regression is in; us/job divides by the
// 24 000 jobs an iteration simulates.
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
			perIter := 0
			for i := 0; i < b.N; i++ {
				perIter = 0
				for _, tr := range traces {
					for _, pol := range policies {
						res, err := core.Run(core.Config{Procs: tr.procs, Scheduler: kind, Policy: pol, Audit: true}, tr.jobs)
						if err != nil {
							b.Fatal(err)
						}
						if len(res.Placements) != len(tr.jobs) {
							b.Fatal("lost jobs")
						}
						perIter += len(tr.jobs)
					}
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N*perIter), "us/job")
		})
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
		if p.MinFree(from, dur) >= w {
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
// ablation baseline of DESIGN.md decision 2) and the indexed
// step-function Profile. The "indexed" sub-benchmark is the headline
// number PERFORMANCE.md tracks; "dense" shows what the naive
// representation would cost for the very same questions.
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
			if p.MinFree(from, dur) >= w {
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
	b.Run("indexed", func(b *testing.B) {
		_, p := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.FindStart(int64(i%100000), 3600, 64)
		}
	})
}

// BenchmarkProfileFindStartSaturated is the shape the free-capacity index
// exists for: a long saturated region (2000 step points, every one below
// the queried width) followed by open capacity. FindStart's skip-ahead
// crosses the region a block at a time via the per-block maxima instead
// of point by point. The alternating widths prevent the tiles from
// coalescing into one step.
func BenchmarkProfileFindStartSaturated(b *testing.B) {
	p := sched.NewProfile(430)
	for i, t := 0, int64(0); t < 100000; i, t = i+1, t+50 {
		p.Reserve(t, 50, 399+i%2) // free alternates 31/30: always < 64
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := p.FindStart(0, 3600, 64); s != 100000 {
			b.Fatalf("FindStart = %d, want 100000", s)
		}
	}
}

// --- Event queue -------------------------------------------------------------

func BenchmarkEventQueue(b *testing.B) {
	r := stats.NewRNG(5)
	j := &job.Job{ID: 1}
	times := make([]int64, 1024)
	for i := range times {
		times[i] = int64(r.Intn(1 << 20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := sim.NewEventQueue()
		for _, t := range times {
			q.Push(t, sim.Arrival, j)
		}
		for q.Len() > 0 {
			q.Pop()
		}
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

// BenchmarkSweep24CellsCached measures a fully warm cache: every cell is a
// content-addressed hit, so this is the floor a repeated study pays.
func BenchmarkSweep24CellsCached(b *testing.B) {
	d := benchSweepDesign(b)
	cache, err := runner.OpenCache(b.TempDir(), sweep.CacheSalt)
	if err != nil {
		b.Fatal(err)
	}
	opt := sweep.Options{Workers: runtime.NumCPU(), Cache: cache}
	if _, err := sweep.RunWith(context.Background(), d, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := runner.NewJournal(nil)
		opt.Journal = j
		recs, err := sweep.RunWith(context.Background(), d, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != 24 {
			b.Fatalf("records = %d, want 24", len(recs))
		}
		if s := j.Summary(); s.CacheHits != 24 {
			b.Fatalf("cache hits = %d, want 24", s.CacheHits)
		}
	}
}
