package exp

import (
	"fmt"
	"strings"

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
		{ID: "DepthSweep", Description: "Ablation: lookahead depth k from EASY (k=1) toward conservative-like protection", Render: renderDepthSweep,
			Cells: ctcHigh(actual, []string{"depth:1", "depth:2", "depth:4", "depth:8", "depth:16"}, fcfs)},
		{ID: "SlackSweep", Description: "Ablation: slack factor from conservative (s=0) toward aggressive insertion", Render: renderSlackSweep,
			Cells: ctcHigh(actual, []string{"slack:0", "slack:0.5", "slack:1", "slack:2", "slack:5"}, fcfs)},
		{ID: "CompressionAblation", Description: "Ablation: conservative backfilling with and without hole compression", Render: renderCompressionAblation,
			Cells: ctcHigh(append(overestimates, "actual"), []string{"conservative", "conservative-nc"}, fcfs)},
		{ID: "Fairness", Description: "Extension: fairness view (Gini, tail ratios) across schedulers", Render: renderFairness,
			Cells: ctcCells("actual none FCFS", "actual conservative FCFS", "actual easy FCFS", "actual easy SJF",
				"actual selective:adaptive FCFS", "actual slack:1 FCFS")},
		{ID: "Confidence", Description: "Robustness: headline slowdowns across seeds with 95% CIs", Cells: confidenceCells, Render: renderConfidence},
		{ID: "Burstiness", Description: "Extension: renewal vs diurnal vs user-session arrivals at equal load", Cells: burstinessCells, Render: renderBurstiness},
		{ID: "BackfillOrder", Description: "Ablation: EASY backfill candidate order (firstfit / bestfit / shortestfit)", Render: renderBackfillOrder,
			Cells: ctcHigh(actual, []string{"easy", "easy:bestfit", "easy:shortestfit"}, fcfs)},
		{ID: "Significance", Description: "Robustness: paired-bootstrap CIs for per-job slowdown differences between schedulers", Render: renderSignificance,
			// (baseline, candidate) pairs.
			Cells: ctcCells(
				"exact conservative FCFS", "exact easy SJF",
				"exact conservative FCFS", "exact easy XF",
				"exact conservative FCFS", "exact easy FCFS",
				"actual conservative SJF", "actual easy SJF",
				"actual easy FCFS", "actual selective:adaptive FCFS")},
		{ID: "Preemption", Description: "Companion-paper extension: EASY with selective preemption (suspend/resume)", Render: renderPreemption,
			Cells: ctcHigh(actual, []string{"easy", "conservative", "selective:adaptive", "preemptive:20", "preemptive:10", "preemptive:5"}, fcfs)},
		{ID: "PolicyMatrix", Description: "Survey: every scheduler family × priority policy on one workload", Render: renderPolicyMatrix,
			Cells: ctcHigh(actual, []string{
				"none", "conservative", "easy", "easy:bestfit", "easy:shortestfit",
				"depth:4", "slack:1", "selective:adaptive", "preemptive:10",
			}, allPolicies)},
		{ID: "Partitioning", Description: "Historical baseline: static short/long partitions vs one shared backfilling pool", Render: renderPartitioning},
		{ID: "LoadConsistency", Description: "§3's claim: the category-wise trends hold under both normal and high load", Render: renderLoadConsistency,
			Cells: func(p Params) []sweep.Key {
				return append(p.cross("CTC", p.NormalLoad, exact, backfillKinds, fcfs), p.cross("CTC", p.HighLoad, exact, backfillKinds, fcfs)...)
			}},
		{ID: "MultiSite", Description: "Companion-paper extension: grid scheduling with multiple simultaneous requests", Render: renderMultiSite},
		{ID: "Distribution", Description: "Extension: the full slowdown distribution (quantiles), not just the mean", Render: renderDistribution,
			Cells: ctcCells("actual conservative FCFS", "actual easy FCFS", "actual easy SJF",
				"actual selective:adaptive FCFS", "actual preemptive:5 FCFS")},
	}
}

// --- Slowdown distribution ---------------------------------------------------

var renderDistribution = perCell(Table{
	ID:      "Distribution",
	Title:   "Slowdown quantiles — CTC trace, actual estimates (the paper's theme: means hide the story)",
	Headers: []string{"scheduler", "p10", "p25", "p50", "p75", "p90", "p99", "mean"},
	Notes: []string{
		"most jobs see slowdown ~1 under every scheduler; the schedulers differ almost entirely in the tail",
	},
}, func(_ sweep.Key, r *core.Result) []any {
	slows := make([]float64, len(r.Outcomes))
	for i, o := range r.Outcomes {
		slows[i] = o.Slowdown()
	}
	qs := stats.Percentiles(slows, 10, 25, 50, 75, 90, 99)
	return []any{r.Report.Scheduler, qs[0], qs[1], qs[2], qs[3], qs[4], qs[5],
		r.Report.Overall.MeanSlowdown}
})

// --- Multi-site grid scheduling -------------------------------------------------

func renderMultiSite(l *Lab, _ Results) ([]*Table, error) {
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
			return nil, fmt.Errorf("multisite: %w", err)
		}
		for i, rep := range reps {
			t.AddRow(routings[i].String(), schedKind, rep.Overall.MeanSlowdown,
				rep.Overall.MeanWait, rep.Overall.MaxTurnaround)
		}
	}
	return []*Table{t}, nil
}

// --- Normal vs high load trend consistency ------------------------------------------

func renderLoadConsistency(l *Lab, res Results) ([]*Table, error) {
	t := &Table{
		ID:      "LoadConsistency",
		Title:   "Category-wise %Δ slowdown, EASY vs conservative under FCFS, at both loads — CTC trace",
		Headers: []string{"category", "normal load", "high load"},
		Notes: []string{
			"the paper reports the same signs at both loads, pronounced under high load",
		},
	}
	var changes []core.CategoryChange
	for _, pair := range rows(res.Keys, 2) {
		changes = append(changes, core.Compare(res.Get(pair[0]), res.Get(pair[1])))
	}
	for _, c := range job.Categories() {
		t.AddRow(c.String(), percent(changes[0].PerCat[c], changes[0].PerCatOK[c]),
			percent(changes[1].PerCat[c], changes[1].PerCatOK[c]))
	}
	return []*Table{t}, nil
}

// --- Static partitioning vs shared pool ------------------------------------------

func renderPartitioning(l *Lab, _ Results) ([]*Table, error) {
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

	split := func(inner func(procs int) sim.Scheduler) sim.Scheduler {
		sizes := []int{shortSize, longSize}
		return sched.NewPartitioned(sizes, sched.RuntimeRouter(3600, sizes), func(p, _ int) sim.Scheduler { return inner(p) })
	}
	configs := []struct {
		label string
		s     sim.Scheduler
	}{
		{"shared EASY(FCFS)", sched.NewEASY(procs, sched.FCFS{})},
		{"shared EASY(SJF)", sched.NewEASY(procs, sched.SJF{})},
		{fmt.Sprintf("split %d short + %d long, EASY(FCFS)", shortSize, longSize),
			split(func(p int) sim.Scheduler { return sched.NewEASY(p, sched.FCFS{}) })},
		{fmt.Sprintf("split %d short + %d long, NoBackfill(FCFS)", shortSize, longSize),
			split(func(p int) sim.Scheduler { return sched.NewNoBackfill(p, sched.FCFS{}) })},
	}
	th := job.PaperThresholds()
	for _, cfg := range configs {
		ps, ar, err := audit.Run(procs, jobs, cfg.s, audit.Options{})
		if err == nil {
			err = ar.Err()
		}
		if err != nil {
			return nil, fmt.Errorf("partitioning %s: %w", cfg.label, err)
		}
		rep := metrics.Analyze(cfg.s.Name(), ps, th, procs)
		t.AddRow(cfg.label, rep.Overall.MeanSlowdown, rep.Overall.MeanWait,
			100*rep.Utilization, 100*rep.LossOfCapacity)
	}
	return []*Table{t}, nil
}

// --- Full survey matrix ---------------------------------------------------------

var renderPolicyMatrix = policyGrid(Table{
	ID:      "PolicyMatrix",
	Title:   "Every scheduler family × priority policy — CTC trace, actual estimates (avg slowdown)",
	Headers: []string{"scheduler"},
	Notes: []string{
		"one table to rank them all; the paper's warning applies — check the per-category views before believing it",
	},
}, allPolicies, scheduler, meanSlowdown)

// --- Selective preemption ------------------------------------------------------

var renderPreemption = perCell(Table{
	ID:      "Preemption",
	Title:   "Selective preemption (suspend/resume) vs non-preemptive schedulers — CTC trace, actual estimates, FCFS",
	Headers: []string{"scheduler", "avg slowdown", "worst-case turnaround (s)", "p95 slowdown"},
	Notes: []string{
		"selective preemption attacks the same starvation problem as selective reservation, with the opposite tool:",
		"instead of promising the starving job the future, it takes the present from low-priority running work",
	},
}, func(_ sweep.Key, r *core.Result) []any {
	return []any{r.Report.Scheduler, r.Report.Overall.MeanSlowdown,
		r.Report.Overall.MaxTurnaround, r.Report.Overall.P95Slowdown}
})

// --- Paired-bootstrap significance ----------------------------------------------

func renderSignificance(l *Lab, res Results) ([]*Table, error) {
	t := &Table{
		ID:      "Significance",
		Title:   "Paired per-job slowdown differences (candidate − baseline), 95% bootstrap CIs — CTC, high load",
		Headers: []string{"baseline", "candidate", "estimates", "mean diff [95% CI]", "significant"},
		Notes: []string{
			"pairing by job removes workload noise: the same jobs run under both schedulers",
			"an interval excluding zero means the ordering is not a fluke of a few jobs",
		},
	}
	for _, pair := range rows(res.Keys, 2) {
		base, cand := res.Get(pair[0]), res.Get(pair[1])
		diffs, err := pairedSlowdowns(cand, base)
		if err != nil {
			return nil, err
		}
		ci, err := stats.BootstrapMeanCI(diffs, 2000, 0.95, l.P.Seed+99)
		if err != nil {
			return nil, err
		}
		t.AddRow(base.Report.Scheduler, cand.Report.Scheduler, pair[0].Estimates,
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
			return nil, fmt.Errorf("job %d missing from baseline", o.Job.ID)
		}
		diffs = append(diffs, o.Slowdown()-b)
	}
	return diffs, nil
}

// --- Backfill candidate order ------------------------------------------------

var renderBackfillOrder = perCell(Table{
	ID:      "BackfillOrder",
	Title:   "EASY backfill candidate order — CTC trace, actual estimates",
	Headers: []string{"variant", "avg slowdown", "avg turnaround (s)", "utilization %"},
	Notes: []string{
		"the order only breaks competition among simultaneously eligible candidates — yet shortestfit wins clearly on mean slowdown (short winners have small slowdown denominators), while bestfit trades slowdown for packing",
	},
}, func(_ sweep.Key, r *core.Result) []any {
	return []any{r.Report.Scheduler, r.Report.Overall.MeanSlowdown,
		r.Report.Overall.MeanTurnaround, 100 * r.Report.Utilization}
})

// --- Burstiness: arrival-process structure at equal load ------------------------

// burstinessConfigs are the schedulers each arrival process runs under.
var burstinessConfigs = [][2]string{{"conservative", "FCFS"}, {"easy", "SJF"}}

// burstinessJobs is the job count of every arrival process.
func burstinessJobs(p Params) int { return min(p.Jobs, 4000) }

// burstinessCells are the renewal process's: a CTC base of its own, drawn
// at the 0.75 load the other two processes are calibrated to, and run as
// generated.
func burstinessCells(p Params) []sweep.Key {
	b := sweep.Base{Model: "CTC", Jobs: burstinessJobs(p), Seed: p.Seed, Load: 0.75}
	var ks []sweep.Key
	for _, cfg := range burstinessConfigs {
		ks = append(ks, sweep.Key{Base: b, Load: b.Load, Estimates: "exact", Scheduler: cfg[0], Policy: cfg[1]})
	}
	return ks
}

func renderBurstiness(l *Lab, res Results) ([]*Table, error) {
	t := &Table{
		ID:      "Burstiness",
		Title:   "Arrival-process structure at roughly equal offered load — CTC distributions",
		Headers: []string{"arrival process", "offered load", "scheduler", "avg slowdown", "p95 slowdown", "peak queue"},
		Notes: []string{
			"renewal arrivals understate queueing: diurnal cycles and user sessions concentrate submissions",
			"backfilling's advantage grows with burstiness — bursts of similar jobs pack well into holes",
		},
	}
	add := func(process string, jobs []*job.Job, res *core.Result) {
		t.AddRow(process, fmt.Sprintf("%.2f", trace.OfferedLoad(jobs, res.Config.Procs)), res.Report.Scheduler,
			res.Report.Overall.MeanSlowdown, res.Report.Overall.P95Slowdown,
			metrics.PeakQueueDepth(res.Placements))
	}
	for _, k := range res.Keys {
		jobs, err := l.m.Jobs(k)
		if err != nil {
			return nil, err
		}
		add("renewal", jobs, res.Get(k))
	}

	diurnal, err := workload.NewCTC(0.75)
	if err != nil {
		return nil, err
	}
	diurnal.Daily = workload.StandardDaily()
	sessions, err := workload.NewSessionCTC(0.75)
	if err != nil {
		return nil, err
	}
	for _, v := range []struct {
		name     string
		generate func(n int, seed int64) ([]*job.Job, error)
		procs    int
	}{{"diurnal", diurnal.Generate, diurnal.Procs}, {"sessions", sessions.Generate, sessions.Base.Procs}} {
		jobs, err := v.generate(burstinessJobs(l.P), l.P.Seed)
		if err != nil {
			return nil, err
		}
		for _, cfg := range burstinessConfigs {
			res, err := core.Run(core.Config{Procs: v.procs, Scheduler: cfg[0], Policy: cfg[1], Audit: true}, jobs)
			if err != nil {
				return nil, err
			}
			add(v.name, jobs, res)
		}
	}
	return []*Table{t}, nil
}

// --- Depth sweep -------------------------------------------------------------

var renderDepthSweep = perCell(Table{
	ID:      "DepthSweep",
	Title:   "Lookahead-k backfilling — CTC trace, actual estimates, FCFS",
	Headers: []string{"k", "avg slowdown", "SW slowdown", "LN slowdown", "worst-case turnaround (s)"},
	Notes: []string{
		"k=1 is EASY; growing k adds reservation roofs: wide jobs gain protection, long narrow jobs lose backfill room",
	},
}, func(k sweep.Key, r *core.Result) []any {
	return []any{strings.TrimPrefix(k.Scheduler, "depth:"), r.Report.Overall.MeanSlowdown,
		r.Report.ByCategory[job.ShortWide].MeanSlowdown,
		r.Report.ByCategory[job.LongNarrow].MeanSlowdown,
		r.Report.Overall.MaxTurnaround}
})

// --- Slack sweep -------------------------------------------------------------

var renderSlackSweep = perCell(Table{
	ID:      "SlackSweep",
	Title:   "Slack-based backfilling — CTC trace, actual estimates, FCFS",
	Headers: []string{"slack factor", "avg slowdown", "avg turnaround (s)", "worst-case turnaround (s)"},
	Notes: []string{
		"slack 0 reproduces conservative exactly; growing slack lets short arrivals displace reservations",
	},
}, func(k sweep.Key, r *core.Result) []any {
	return []any{k.Scheduler, r.Report.Overall.MeanSlowdown,
		r.Report.Overall.MeanTurnaround, r.Report.Overall.MaxTurnaround}
})

// --- Compression ablation -------------------------------------------------------

func renderCompressionAblation(l *Lab, res Results) ([]*Table, error) {
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
	for _, pair := range rows(res.Keys, 2) {
		with, without := res.Get(pair[0]), res.Get(pair[1])
		t.AddRow(pair[0].Estimates, with.Report.Overall.MeanSlowdown, without.Report.Overall.MeanSlowdown,
			with.Report.Overall.MeanTurnaround, without.Report.Overall.MeanTurnaround)
	}
	return []*Table{t}, nil
}

// --- Fairness ---------------------------------------------------------------------

var renderFairness = perCell(Table{
	ID:      "Fairness",
	Title:   "Fairness of delay distribution — CTC trace, actual estimates",
	Headers: []string{"scheduler", "avg slowdown", "Gini(slowdown)", "P99/P50 slowdown", "max/mean"},
	Notes: []string{
		"EASY's low averages concentrate delay on few victims (higher tail ratios); reservations flatten the distribution",
	},
}, func(_ sweep.Key, r *core.Result) []any {
	f := metrics.ComputeFairness(r.Outcomes)
	return []any{r.Report.Scheduler, r.Report.Overall.MeanSlowdown,
		fmt.Sprintf("%.3f", f.GiniSlowdown),
		fmt.Sprintf("%.1f", f.TailRatio99),
		fmt.Sprintf("%.1f", f.MaxMeanRatio)}
})

// --- Confidence intervals across seeds -----------------------------------------------

// confidenceSeeds is how many independent workloads the Confidence
// experiment averages over.
const confidenceSeeds = 5

// confidenceCells run each headline configuration on confidenceSeeds base
// workloads of their own, smaller to keep the experiment fast; the CI
// covers the extra noise.
func confidenceCells(p Params) []sweep.Key {
	var ks []sweep.Key
	headline := ctcCells("exact conservative FCFS", "exact easy SJF", "exact easy XF", "actual conservative SJF", "actual easy SJF")
	for _, k := range headline(p) {
		k.Base.Jobs = max(p.Jobs/2, 200)
		for s := range int64(confidenceSeeds) {
			k.Base.Seed = p.Seed + 100*s
			ks = append(ks, k)
		}
	}
	return ks
}

func renderConfidence(l *Lab, res Results) ([]*Table, error) {
	t := &Table{
		ID:      "Confidence",
		Title:   fmt.Sprintf("Headline slowdowns across %d seeds (mean ± 95%% CI) — CTC, high load", confidenceSeeds),
		Headers: []string{"scheduler", "estimates", "mean slowdown", "±95% CI"},
		Notes: []string{
			"the Figure 1/3 orderings must hold beyond the default seed to count as reproduced",
		},
	}
	for _, ks := range rows(res.Keys, confidenceSeeds) {
		var acc stats.Accumulator
		for _, k := range ks {
			acc.Add(res.Get(k).Report.Overall.MeanSlowdown)
		}
		t.AddRow(fmt.Sprintf("%s(%s)", ks[0].Scheduler, ks[0].Policy), ks[0].Estimates,
			acc.Mean(), fmt.Sprintf("±%.2f", stats.NormalCI(&acc)))
	}
	return []*Table{t}, nil
}
