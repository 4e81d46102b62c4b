package exp

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// extensionExperiments are the ablation and robustness studies that go
// beyond the paper's artifacts: they quantify the design decisions
// DESIGN.md calls out and check headline results across seeds.
func extensionExperiments() []Experiment {
	return []Experiment{
		{ID: "DepthSweep", Description: "Ablation: lookahead depth k from EASY (k=1) toward conservative-like protection", Run: runDepthSweep},
		{ID: "SlackSweep", Description: "Ablation: slack factor from conservative (s=0) toward aggressive insertion", Run: runSlackSweep},
		{ID: "CompressionAblation", Description: "Ablation: conservative backfilling with and without hole compression", Run: runCompressionAblation},
		{ID: "Fairness", Description: "Extension: fairness view (Gini, tail ratios) across schedulers", Run: runFairness},
		{ID: "Confidence", Description: "Robustness: headline slowdowns across seeds with 95% CIs", Run: runConfidence},
		{ID: "Burstiness", Description: "Extension: renewal vs diurnal vs user-session arrivals at equal load", Run: runBurstiness},
		{ID: "BackfillOrder", Description: "Ablation: EASY backfill candidate order (firstfit / bestfit / shortestfit)", Run: runBackfillOrder},
		{ID: "Significance", Description: "Robustness: paired-bootstrap CIs for per-job slowdown differences between schedulers", Run: runSignificance},
		{ID: "Preemption", Description: "Companion-paper extension: EASY with selective preemption (suspend/resume)", Run: runPreemption},
		{ID: "PolicyMatrix", Description: "Survey: every scheduler family × priority policy on one workload", Run: runPolicyMatrix},
		{ID: "Partitioning", Description: "Historical baseline: static short/long partitions vs one shared backfilling pool", Run: runPartitioning},
		{ID: "LoadConsistency", Description: "§3's claim: the category-wise trends hold under both normal and high load", Run: runLoadConsistency},
		{ID: "MultiSite", Description: "Companion-paper extension: grid scheduling with multiple simultaneous requests", Run: runMultiSite},
		{ID: "Distribution", Description: "Extension: the full slowdown distribution (quantiles), not just the mean", Run: runDistribution},
	}
}

// --- Slowdown distribution ---------------------------------------------------

func runDistribution(l *Lab) ([]*Table, error) {
	t := &Table{
		ID:      "Distribution",
		Title:   "Slowdown quantiles — CTC trace, actual estimates (the paper's theme: means hide the story)",
		Headers: []string{"scheduler", "p10", "p25", "p50", "p75", "p90", "p99", "mean"},
		Notes: []string{
			"most jobs see slowdown ~1 under every scheduler; the schedulers differ almost entirely in the tail",
		},
	}
	cfgs := [][2]string{
		{"conservative", "FCFS"},
		{"easy", "FCFS"},
		{"easy", "SJF"},
		{"selective:adaptive", "FCFS"},
		{"preemptive:5", "FCFS"},
	}
	for _, c := range cfgs {
		r, err := l.Result("CTC", l.P.HighLoad, "actual", c[0], c[1])
		if err != nil {
			return nil, err
		}
		slows := make([]float64, len(r.Outcomes))
		for i, o := range r.Outcomes {
			slows[i] = o.Slowdown()
		}
		qs := stats.Percentiles(slows, 10, 25, 50, 75, 90, 99)
		t.AddRow(r.Report.Scheduler, qs[0], qs[1], qs[2], qs[3], qs[4], qs[5],
			r.Report.Overall.MeanSlowdown)
	}
	return []*Table{t}, nil
}

// --- Multi-site grid scheduling -------------------------------------------------

func runMultiSite(l *Lab) ([]*Table, error) {
	t := &Table{
		ID:      "MultiSite",
		Title:   "Grid of 4×128-processor sites: submission strategies — SDSC-class workload, actual estimates",
		Headers: []string{"routing", "scheduler", "avg slowdown", "avg wait (s)", "max turnaround (s)"},
		Notes: []string{
			"replicate-all submits every job to all sites and cancels the losers when one starts it (HPDC'02 companion paper)",
			"it beats even the least-loaded router: submission-time load information cannot see the holes that open later, but a copy in every queue can take them",
		},
	}
	jobs, err := grid.SDSCJobs(min(l.P.Jobs, 4000), l.P.Seed, 0.75, "actual", 4, 128)
	if err != nil {
		return nil, err
	}
	routings := []grid.Routing{grid.Single, grid.LeastLoaded, grid.ReplicateAll}
	for _, schedKind := range []string{"easy", "conservative"} {
		reps, err := grid.Compare(jobs, 4, 128, schedKind, "FCFS", routings)
		if err != nil {
			return nil, fmt.Errorf("exp: multisite: %w", err)
		}
		for i, rep := range reps {
			t.AddRow(routings[i].String(), schedKind, rep.Overall.MeanSlowdown,
				rep.Overall.MeanWait, rep.Overall.MaxTurnaround)
		}
	}
	return []*Table{t}, nil
}

// --- Normal vs high load trend consistency ------------------------------------------

func runLoadConsistency(l *Lab) ([]*Table, error) {
	// The paper: "Simulation studies were performed under both normal and
	// high loads. Similar trends were observed under both loads. The trends
	// are pronounced under high load." Reproduce the Figure 2 FCFS
	// category changes at both loads.
	t := &Table{
		ID:      "LoadConsistency",
		Title:   "Category-wise %Δ slowdown, EASY vs conservative under FCFS, at both loads — CTC trace",
		Headers: []string{"category", "normal load", "high load"},
		Notes: []string{
			"the paper reports the same signs at both loads, pronounced under high load",
		},
	}
	var changes [2]core.CategoryChange
	for i, load := range []float64{l.P.NormalLoad, l.P.HighLoad} {
		cons, err := l.Result("CTC", load, "exact", "conservative", "FCFS")
		if err != nil {
			return nil, err
		}
		easy, err := l.Result("CTC", load, "exact", "easy", "FCFS")
		if err != nil {
			return nil, err
		}
		changes[i] = core.Compare(cons, easy)
	}
	for _, c := range job.Categories() {
		t.AddRow(c.String(), percent(changes[0].PerCat[c], changes[0].PerCatOK[c]),
			percent(changes[1].PerCat[c], changes[1].PerCatOK[c]))
	}
	return []*Table{t}, nil
}

// --- Static partitioning vs shared pool ------------------------------------------

func runPartitioning(l *Lab) ([]*Table, error) {
	t := &Table{
		ID:      "Partitioning",
		Title:   "Static short/long partition vs shared backfilling pool — CTC trace, actual estimates",
		Headers: []string{"configuration", "avg slowdown", "avg wait (s)", "utilization %", "capacity loss %"},
		Notes: []string{
			"the pre-backfilling operating model: a dedicated short-job partition plus a long-job partition",
			"the shared pool wins on delivered utilization — each partition idles while the other queues",
			"capacity loss = fraction of processor-time idle while jobs waited (the scheduler's own waste)",
		},
	}
	jobs, err := l.Workload("CTC", l.P.HighLoad, "actual")
	if err != nil {
		return nil, err
	}
	procs, err := l.Procs("CTC")
	if err != nil {
		return nil, err
	}
	// Cap at the long partition's width so every job is routable; the same
	// capped workload feeds the shared pool for a fair comparison.
	longSize := procs * 7 / 10
	shortSize := procs - longSize
	jobs = trace.FilterWidth(jobs, longSize)

	configs := []struct {
		label string
		mk    func() sim.Scheduler
	}{
		{"shared EASY(FCFS)", func() sim.Scheduler { return sched.NewEASY(procs, sched.FCFS{}) }},
		{"shared EASY(SJF)", func() sim.Scheduler { return sched.NewEASY(procs, sched.SJF{}) }},
		{fmt.Sprintf("split %d short + %d long, EASY(FCFS)", shortSize, longSize), func() sim.Scheduler {
			sizes := []int{shortSize, longSize}
			return sched.NewPartitioned(sizes, sched.RuntimeRouter(3600, sizes), func(p, _ int) sim.Scheduler {
				return sched.NewEASY(p, sched.FCFS{})
			})
		}},
		{fmt.Sprintf("split %d short + %d long, NoBackfill(FCFS)", shortSize, longSize), func() sim.Scheduler {
			sizes := []int{shortSize, longSize}
			return sched.NewPartitioned(sizes, sched.RuntimeRouter(3600, sizes), func(p, _ int) sim.Scheduler {
				return sched.NewNoBackfill(p, sched.FCFS{})
			})
		}},
	}
	th := job.PaperThresholds()
	for _, cfg := range configs {
		s := cfg.mk()
		ps, ar, err := audit.Run(procs, jobs, s, audit.Options{})
		if err == nil {
			err = ar.Err()
		}
		if err != nil {
			return nil, fmt.Errorf("exp: partitioning %s: %w", cfg.label, err)
		}
		rep := metrics.Analyze(s.Name(), ps, th, procs)
		t.AddRow(cfg.label, rep.Overall.MeanSlowdown, rep.Overall.MeanWait,
			100*rep.Utilization, 100*rep.LossOfCapacity)
	}
	return []*Table{t}, nil
}

// --- Full survey matrix ---------------------------------------------------------

func runPolicyMatrix(l *Lab) ([]*Table, error) {
	t := &Table{
		ID:      "PolicyMatrix",
		Title:   "Every scheduler family × priority policy — CTC trace, actual estimates (avg slowdown)",
		Headers: []string{"scheduler", "FCFS", "SJF", "XF", "LJF", "WFP"},
		Notes: []string{
			"one table to rank them all; the paper's warning applies — check the per-category views before believing it",
		},
	}
	kinds := []string{
		"none", "conservative", "easy", "easy:bestfit", "easy:shortestfit",
		"depth:4", "slack:1", "selective:adaptive", "preemptive:10",
	}
	for _, kind := range kinds {
		row := []any{kind}
		for _, pol := range []string{"FCFS", "SJF", "XF", "LJF", "WFP"} {
			r, err := l.Result("CTC", l.P.HighLoad, "actual", kind, pol)
			if err != nil {
				return nil, err
			}
			row = append(row, r.Report.Overall.MeanSlowdown)
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// --- Selective preemption ------------------------------------------------------

func runPreemption(l *Lab) ([]*Table, error) {
	t := &Table{
		ID:      "Preemption",
		Title:   "Selective preemption (suspend/resume) vs non-preemptive schedulers — CTC trace, actual estimates, FCFS",
		Headers: []string{"scheduler", "avg slowdown", "worst-case turnaround (s)", "p95 slowdown"},
		Notes: []string{
			"selective preemption attacks the same starvation problem as selective reservation, with the opposite tool:",
			"instead of promising the starving job the future, it takes the present from low-priority running work",
		},
	}
	kinds := []string{"easy", "conservative", "selective:adaptive", "preemptive:20", "preemptive:10", "preemptive:5"}
	for _, kind := range kinds {
		r, err := l.Result("CTC", l.P.HighLoad, "actual", kind, "FCFS")
		if err != nil {
			return nil, err
		}
		t.AddRow(r.Report.Scheduler, r.Report.Overall.MeanSlowdown,
			r.Report.Overall.MaxTurnaround, r.Report.Overall.P95Slowdown)
	}
	return []*Table{t}, nil
}

// --- Paired-bootstrap significance ----------------------------------------------

func runSignificance(l *Lab) ([]*Table, error) {
	t := &Table{
		ID:      "Significance",
		Title:   "Paired per-job slowdown differences (candidate − baseline), 95% bootstrap CIs — CTC, high load",
		Headers: []string{"baseline", "candidate", "estimates", "mean diff [95% CI]", "significant"},
		Notes: []string{
			"pairing by job removes workload noise: the same jobs run under both schedulers",
			"an interval excluding zero means the ordering is not a fluke of a few jobs",
		},
	}
	comparisons := []struct {
		baseKind, basePol, candKind, candPol, est string
	}{
		{"conservative", "FCFS", "easy", "SJF", "exact"},
		{"conservative", "FCFS", "easy", "XF", "exact"},
		{"conservative", "FCFS", "easy", "FCFS", "exact"},
		{"conservative", "SJF", "easy", "SJF", "actual"},
		{"easy", "FCFS", "selective:adaptive", "FCFS", "actual"},
	}
	for _, c := range comparisons {
		base, err := l.Result("CTC", l.P.HighLoad, c.est, c.baseKind, c.basePol)
		if err != nil {
			return nil, err
		}
		cand, err := l.Result("CTC", l.P.HighLoad, c.est, c.candKind, c.candPol)
		if err != nil {
			return nil, err
		}
		diffs, err := pairedSlowdowns(cand, base)
		if err != nil {
			return nil, err
		}
		ci, err := stats.BootstrapMeanCI(diffs, 2000, 0.95, l.P.Seed+99)
		if err != nil {
			return nil, err
		}
		t.AddRow(base.Report.Scheduler, cand.Report.Scheduler, c.est,
			ci.String(), fmt.Sprintf("%v", ci.ExcludesZero()))
	}
	return []*Table{t}, nil
}

// pairedSlowdowns aligns two results by job ID and returns per-job
// candidate−baseline slowdown differences.
func pairedSlowdowns(cand, base *core.Result) ([]float64, error) {
	baseByID := make(map[int]float64, len(base.Outcomes))
	for _, o := range base.Outcomes {
		baseByID[o.Job.ID] = o.Slowdown()
	}
	diffs := make([]float64, 0, len(cand.Outcomes))
	for _, o := range cand.Outcomes {
		b, ok := baseByID[o.Job.ID]
		if !ok {
			return nil, fmt.Errorf("exp: job %d missing from baseline", o.Job.ID)
		}
		diffs = append(diffs, o.Slowdown()-b)
	}
	return diffs, nil
}

// --- Backfill candidate order ------------------------------------------------

func runBackfillOrder(l *Lab) ([]*Table, error) {
	t := &Table{
		ID:      "BackfillOrder",
		Title:   "EASY backfill candidate order — CTC trace, actual estimates",
		Headers: []string{"variant", "avg slowdown", "avg turnaround (s)", "utilization %"},
		Notes: []string{
			"the order only breaks competition among simultaneously eligible candidates — yet shortestfit wins clearly on mean slowdown (short winners have small slowdown denominators), while bestfit trades slowdown for packing",
		},
	}
	for _, kind := range []string{"easy", "easy:bestfit", "easy:shortestfit"} {
		r, err := l.Result("CTC", l.P.HighLoad, "actual", kind, "FCFS")
		if err != nil {
			return nil, err
		}
		t.AddRow(r.Report.Scheduler, r.Report.Overall.MeanSlowdown,
			r.Report.Overall.MeanTurnaround, 100*r.Report.Utilization)
	}
	return []*Table{t}, nil
}

// --- Burstiness: arrival-process structure at equal load ------------------------

func runBurstiness(l *Lab) ([]*Table, error) {
	t := &Table{
		ID:      "Burstiness",
		Title:   "Arrival-process structure at roughly equal offered load — CTC distributions",
		Headers: []string{"arrival process", "offered load", "scheduler", "avg slowdown", "p95 slowdown", "peak queue"},
		Notes: []string{
			"renewal arrivals understate queueing: diurnal cycles and user sessions concentrate submissions",
			"backfilling's advantage grows with burstiness — bursts of similar jobs pack well into holes",
		},
	}
	n := l.P.Jobs
	if n > 4000 {
		n = 4000
	}

	type variant struct {
		name string
		gen  func() ([]*job.Job, int, error)
	}
	variants := []variant{
		{"renewal", func() ([]*job.Job, int, error) {
			w, err := sweep.Base{Model: "CTC", Jobs: n, Seed: l.P.Seed, Load: 0.75}.Generate()
			return w.Jobs, w.Procs, err
		}},
		{"diurnal", func() ([]*job.Job, int, error) {
			m, err := workload.NewCTC(0.75)
			if err != nil {
				return nil, 0, err
			}
			m.Daily = workload.StandardDaily()
			js, err := m.Generate(n, l.P.Seed)
			return js, m.Procs, err
		}},
		{"sessions", func() ([]*job.Job, int, error) {
			s, err := workload.NewSessionCTC(0.75)
			if err != nil {
				return nil, 0, err
			}
			js, err := s.Generate(n, l.P.Seed)
			return js, s.Base.Procs, err
		}},
	}

	for _, v := range variants {
		jobs, procs, err := v.gen()
		if err != nil {
			return nil, err
		}
		load := trace.OfferedLoad(jobs, procs)
		for _, cfg := range [][2]string{{"conservative", "FCFS"}, {"easy", "SJF"}} {
			res, err := core.Run(core.Config{Procs: procs, Scheduler: cfg[0], Policy: cfg[1], Audit: true}, jobs)
			if err != nil {
				return nil, err
			}
			t.AddRow(v.name, fmt.Sprintf("%.2f", load), res.Report.Scheduler,
				res.Report.Overall.MeanSlowdown, res.Report.Overall.P95Slowdown,
				metrics.PeakQueueDepth(res.Placements))
		}
	}
	return []*Table{t}, nil
}

// --- Depth sweep -------------------------------------------------------------

func runDepthSweep(l *Lab) ([]*Table, error) {
	t := &Table{
		ID:      "DepthSweep",
		Title:   "Lookahead-k backfilling — CTC trace, actual estimates, FCFS",
		Headers: []string{"k", "avg slowdown", "SW slowdown", "LN slowdown", "worst-case turnaround (s)"},
		Notes: []string{
			"k=1 is EASY; growing k adds reservation roofs: wide jobs gain protection, long narrow jobs lose backfill room",
		},
	}
	for _, k := range []int{1, 2, 4, 8, 16} {
		r, err := l.Result("CTC", l.P.HighLoad, "actual", fmt.Sprintf("depth:%d", k), "FCFS")
		if err != nil {
			return nil, err
		}
		t.AddRow(k, r.Report.Overall.MeanSlowdown,
			r.Report.ByCategory[job.ShortWide].MeanSlowdown,
			r.Report.ByCategory[job.LongNarrow].MeanSlowdown,
			r.Report.Overall.MaxTurnaround)
	}
	return []*Table{t}, nil
}

// --- Slack sweep -------------------------------------------------------------

func runSlackSweep(l *Lab) ([]*Table, error) {
	t := &Table{
		ID:      "SlackSweep",
		Title:   "Slack-based backfilling — CTC trace, actual estimates, FCFS",
		Headers: []string{"slack factor", "avg slowdown", "avg turnaround (s)", "worst-case turnaround (s)"},
		Notes: []string{
			"slack 0 reproduces conservative exactly; growing slack lets short arrivals displace reservations",
		},
	}
	for _, s := range []string{"slack:0", "slack:0.5", "slack:1", "slack:2", "slack:5"} {
		r, err := l.Result("CTC", l.P.HighLoad, "actual", s, "FCFS")
		if err != nil {
			return nil, err
		}
		t.AddRow(s, r.Report.Overall.MeanSlowdown,
			r.Report.Overall.MeanTurnaround, r.Report.Overall.MaxTurnaround)
	}
	return []*Table{t}, nil
}

// --- Compression ablation -------------------------------------------------------

func runCompressionAblation(l *Lab) ([]*Table, error) {
	t := &Table{
		ID:      "CompressionAblation",
		Title:   "Conservative backfilling with vs without compression — CTC trace, FCFS",
		Headers: []string{"estimates", "slowdown (with)", "slowdown (without)", "turnaround (with)", "turnaround (without)"},
		Notes: []string{
			"with accurate estimates (R=1) the two coincide: no holes ever open",
			"without compression, stale reservations inflate mean turnaround by an order of magnitude at R=4",
			"mean slowdown can look *better* without compression — short arrivals backfill into the sparse phantom ladder — which is exactly the metric blindness the paper's per-category methodology warns about",
		},
	}
	for _, est := range []string{"R=1", "R=2", "R=4", "actual"} {
		with, err := l.Result("CTC", l.P.HighLoad, est, "conservative", "FCFS")
		if err != nil {
			return nil, err
		}
		without, err := l.Result("CTC", l.P.HighLoad, est, "conservative-nc", "FCFS")
		if err != nil {
			return nil, err
		}
		t.AddRow(est, with.Report.Overall.MeanSlowdown, without.Report.Overall.MeanSlowdown,
			with.Report.Overall.MeanTurnaround, without.Report.Overall.MeanTurnaround)
	}
	return []*Table{t}, nil
}

// --- Fairness ---------------------------------------------------------------------

func runFairness(l *Lab) ([]*Table, error) {
	t := &Table{
		ID:      "Fairness",
		Title:   "Fairness of delay distribution — CTC trace, actual estimates",
		Headers: []string{"scheduler", "avg slowdown", "Gini(slowdown)", "P99/P50 slowdown", "max/mean"},
		Notes: []string{
			"EASY's low averages concentrate delay on few victims (higher tail ratios); reservations flatten the distribution",
		},
	}
	cfgs := [][2]string{
		{"none", "FCFS"},
		{"conservative", "FCFS"},
		{"easy", "FCFS"},
		{"easy", "SJF"},
		{"selective:adaptive", "FCFS"},
		{"slack:1", "FCFS"},
	}
	for _, c := range cfgs {
		r, err := l.Result("CTC", l.P.HighLoad, "actual", c[0], c[1])
		if err != nil {
			return nil, err
		}
		f := metrics.ComputeFairness(r.Outcomes)
		t.AddRow(r.Report.Scheduler, r.Report.Overall.MeanSlowdown,
			fmt.Sprintf("%.3f", f.GiniSlowdown),
			fmt.Sprintf("%.1f", f.TailRatio99),
			fmt.Sprintf("%.1f", f.MaxMeanRatio))
	}
	return []*Table{t}, nil
}

// --- Confidence intervals across seeds -----------------------------------------------

// confidenceSeeds is how many independent workloads the Confidence
// experiment averages over.
const confidenceSeeds = 5

func runConfidence(l *Lab) ([]*Table, error) {
	t := &Table{
		ID:      "Confidence",
		Title:   fmt.Sprintf("Headline slowdowns across %d seeds (mean ± 95%% CI) — CTC, high load", confidenceSeeds),
		Headers: []string{"scheduler", "estimates", "mean slowdown", "±95% CI"},
		Notes: []string{
			"the Figure 1/3 orderings must hold beyond the default seed to count as reproduced",
		},
	}
	cfgs := []struct {
		kind, pol, est string
	}{
		{"conservative", "FCFS", "exact"},
		{"easy", "SJF", "exact"},
		{"easy", "XF", "exact"},
		{"conservative", "SJF", "actual"},
		{"easy", "SJF", "actual"},
	}
	for _, cfg := range cfgs {
		var acc stats.Accumulator
		// Each seed is a base workload of its own, smaller to keep the
		// experiment fast; the CI covers the extra noise.
		for s := int64(0); s < confidenceSeeds; s++ {
			b := l.base("CTC")
			b.Seed += 100 * s
			b.Jobs = max(l.P.Jobs/2, 200)
			r, err := l.m.Result(sweep.Key{
				Base: b, Load: l.P.HighLoad, Estimates: cfg.est, Scheduler: cfg.kind, Policy: cfg.pol,
			})
			if err != nil {
				return nil, err
			}
			acc.Add(r.Report.Overall.MeanSlowdown)
		}
		t.AddRow(fmt.Sprintf("%s(%s)", cfg.kind, cfg.pol), cfg.est,
			acc.Mean(), fmt.Sprintf("±%.2f", stats.NormalCI(&acc)))
	}
	return []*Table{t}, nil
}
