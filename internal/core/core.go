// Package core is the public face of the backfilling characterization
// library: it binds a workload, a scheduler (kind × priority policy), and
// the metrics pipeline into one deterministic simulation run, and provides
// the comparison views the paper's figures are built from (relative
// category-wise slowdown changes, schedule fingerprints, estimate-quality
// splits).
//
// A minimal use looks like:
//
//	model, _ := workload.NewCTC(0.9)
//	jobs, _ := model.Generate(5000, 1)
//	res, _ := core.Run(core.Config{Procs: model.Procs, Scheduler: "easy", Policy: "SJF"}, jobs)
//	fmt.Println(res.Report.Overall.MeanSlowdown)
package core

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Config selects one simulation setup.
type Config struct {
	// Procs is the machine size (required, >= 1).
	Procs int
	// Scheduler is a scheduler kind as sched.MakerFor spells it, such as
	// "easy" or "slack:1"; sched.Kinds lists one of each. Required.
	Scheduler string
	// Policy is the queue priority policy name: FCFS, SJF, XF, LJF, WFP.
	// Defaults to FCFS when empty.
	Policy string
	// Thresholds are the job-category boundaries; zero value means the
	// paper's Table 1 thresholds (1 hour, 8 processors).
	Thresholds job.Thresholds
	// Audit wraps the scheduler in the internal/audit invariant checker
	// (capacity, launch/arrival discipline, kill-at-estimate, reservation
	// and guarantee semantics); any violation fails the run. Cheap; on by
	// default in the experiment harness.
	Audit bool
}

// withDefaults fills in defaulted fields.
func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = "FCFS"
	}
	if c.Thresholds == (job.Thresholds{}) {
		c.Thresholds = job.PaperThresholds()
	}
	return c
}

// Result is one finished simulation. A caller that keeps it keeps two
// tables a job, 56 bytes, and shares the jobs themselves with the input.
type Result struct {
	Config Config
	// Report is the run's analysis: a fixed size, whatever the jobs.
	Report metrics.Report
	// Outcomes holds each job's placement and category, 32 bytes a job;
	// the derived quantities are its methods.
	Outcomes []metrics.Outcome
	// Placements is what the simulation returned, 24 bytes a job.
	Placements  []sim.Placement
	Fingerprint uint64
	// Work is what the scheduler did to place them.
	Work sched.WorkCounts
}

// Run simulates jobs under cfg. The input jobs are never modified; they
// must already carry the estimates the experiment calls for (see
// workload.ApplyEstimates).
func Run(cfg Config, jobs []*job.Job) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("core: config has %d processors", cfg.Procs)
	}
	pol, err := sched.PolicyByName(cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	mk, err := sched.MakerFor(cfg.Scheduler, pol)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := mk(cfg.Procs)

	runnable := sim.Scheduler(s)
	var aud *audit.Auditor
	if cfg.Audit {
		aud = audit.New(cfg.Procs, s, audit.OptionsForKind(cfg.Scheduler, pol))
		defer aud.Release()
		runnable = aud
	}
	ps, err := sim.Run(sim.Machine{Procs: cfg.Procs}, jobs, runnable, nil)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if aud != nil {
		if err := aud.Err(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	outs := metrics.FromPlacements(ps, cfg.Thresholds)
	res := &Result{
		Config:      cfg,
		Report:      metrics.AnalyzeOutcomes(s.Name(), ps, outs, cfg.Procs),
		Outcomes:    outs,
		Placements:  ps,
		Fingerprint: metrics.Fingerprint(ps),
	}
	if w, ok := s.(interface{ WorkCounts() sched.WorkCounts }); ok {
		res.Work = w.WorkCounts()
	}
	return res, nil
}

// CategoryChange holds Figure 2's view: the relative (%) change of mean
// slowdown of a candidate scheduler versus a baseline, per category and
// overall. Negative values mean the candidate improved that category.
type CategoryChange struct {
	Baseline  string
	Candidate string
	PerCat    [job.NumCategories]float64
	PerCatOK  [job.NumCategories]bool // false when the category was empty
	Overall   float64
	OverallOK bool
}

// Compare computes the relative slowdown change of candidate versus base.
func Compare(base, candidate *Result) CategoryChange {
	cc := CategoryChange{
		Baseline:  base.Report.Scheduler,
		Candidate: candidate.Report.Scheduler,
	}
	for _, c := range job.Categories() {
		b := base.Report.ByCategory[c].MeanSlowdown
		v := candidate.Report.ByCategory[c].MeanSlowdown
		if pc, err := metrics.PercentChange(b, v); err == nil {
			cc.PerCat[c] = pc
			cc.PerCatOK[c] = true
		}
	}
	if pc, err := metrics.PercentChange(base.Report.Overall.MeanSlowdown, candidate.Report.Overall.MeanSlowdown); err == nil {
		cc.Overall = pc
		cc.OverallOK = true
	}
	return cc
}

// SameSchedule reports whether two results placed every job at the same
// start time (the §4.1 equivalence check).
func SameSchedule(a, b *Result) bool {
	return a.Fingerprint == b.Fingerprint && len(a.Placements) == len(b.Placements)
}

// RunMatrix runs every scheduler kind × policy combination over the same
// workload and returns results keyed by label. Any single failure aborts.
func RunMatrix(procs int, jobs []*job.Job, kinds, policies []string) (map[string]*Result, error) {
	out := make(map[string]*Result, len(kinds)*len(policies))
	for _, k := range kinds {
		for _, p := range policies {
			cfg := Config{Procs: procs, Scheduler: k, Policy: p, Audit: true}
			res, err := Run(cfg, jobs)
			if err != nil {
				return nil, fmt.Errorf("core: %s/%s: %w", k, p, err)
			}
			out[res.Report.Scheduler] = res
		}
	}
	return out, nil
}
