package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	wgen "repro/internal/workload"
)

// The paper's grid: every backfilling family the repo implements under
// the three priority policies of §4, on both trace models.
var (
	studyKinds    = []string{"none", "easy", "conservative", "depth:4", "slack:1", "selective:2", "preemptive:10"}
	studyPolicies = []string{"FCFS", "SJF", "XF"}
	studyModels   = []string{"CTC", "SDSC"}
)

const studyLoad = 0.9

// streamSeed fixes the job streams (arrivals, widths, runtimes) of study
// and follow: the model's draw for this seed, on every run. The run's seed
// redraws the user estimates, which changes every backfilling decision and
// so every schedule, and leaves the offered load and the congestion profile
// alone.
// Redrawing the streams too moves a round's time by 45 % between seeds
// (README "What the seed changes"), which no code change could be seen
// through.
const streamSeed = 42

// studyCell is one simulation of the grid.
type studyCell struct {
	model, kind, policy string
	procs               int
	jobs                []*job.Job
}

func (c studyCell) key() string { return c.model + "/" + c.kind + "/" + c.policy }

// study runs the grid the way a researcher does: core.Run, serially.
type study struct {
	jobsPerTrace int
	golden       map[string]string // nil: no golden for these inputs

	cells        []studyCell
	jobsPerRound int
	genPerJob    time.Duration
	prints       []uint64 // the warm-up round's fingerprints, cell by cell
}

// tailQ is p95: the two slowest of the 42 cells lie beyond it, each the
// fastest of the run's replicates of that cell.
func (s *study) tailQ() float64              { return 0.95 }
func (s *study) nominalRound() time.Duration { return 2 * time.Second }
func (s *study) cleanup()                    {}

func (s *study) prepare(seed int64) error {
	root := stats.NewRNG(seed)
	s.cells, s.jobsPerRound, s.prints = nil, 0, nil
	t0 := time.Now()
	for _, name := range studyModels {
		estSeed := root.Int63()
		m, err := wgen.ByName(name, studyLoad)
		if err != nil {
			return err
		}
		jobs, err := m.Generate(s.jobsPerTrace, streamSeed)
		if err != nil {
			return err
		}
		jobs = wgen.ApplyEstimates(jobs, wgen.Actual{}, estSeed)
		for _, kind := range studyKinds {
			for _, pol := range studyPolicies {
				s.cells = append(s.cells, studyCell{model: name, kind: kind, policy: pol, procs: m.Procs, jobs: jobs})
				s.jobsPerRound += len(jobs)
			}
		}
	}
	s.genPerJob = time.Since(t0) / time.Duration(len(studyModels)*s.jobsPerTrace)
	return nil
}

func (c studyCell) config(auditOn bool) core.Config {
	return core.Config{Procs: c.procs, Scheduler: c.kind, Policy: c.policy, Audit: auditOn}
}

// verify checks every warm-up cell against a second run without the
// auditor and, where a golden exists, against the golden.
func (s *study) verify(warm *roundCtx) (int, error) {
	results := warm.keep.(studyKeep).results
	if s.golden != nil && len(s.golden) != len(s.cells) {
		return 0, fmt.Errorf("golden has %d cells, the grid %d", len(s.golden), len(s.cells))
	}
	failed := 0
	for i, c := range s.cells {
		res := results[i]
		bare, err := core.Run(c.config(false), c.jobs)
		if err != nil {
			return 0, fmt.Errorf("%s unaudited: %w", c.key(), err)
		}
		ok := core.SameSchedule(res, bare)
		if s.golden != nil && s.golden[c.key()] != hex(res.Fingerprint) {
			ok = false
		}
		if !ok {
			failed += len(c.jobs)
		}
	}
	return failed, nil
}

func hex(v uint64) string { return fmt.Sprintf("%#016x", v) }

func (s *study) round(rc *roundCtx) error {
	results := make([]*core.Result, 0, len(s.cells))
	accs := make(map[string]*schedAcc)
	rc.start()
	for i, c := range s.cells {
		t0 := time.Now()
		var res *core.Result
		var err error
		if rc.tr == nil {
			res, err = core.Run(c.config(true), c.jobs)
		} else {
			acc := accs[c.kind]
			if acc == nil {
				acc = &schedAcc{}
				accs[c.kind] = acc
			}
			res, err = tracedCell(rc.tr, rc.span, c, acc)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", c.key(), err)
		}
		rc.sample(time.Since(t0))
		rc.mark() // a cell is a slice
		if rc.warm {
			s.prints = append(s.prints, res.Fingerprint)
		}
		if res.Fingerprint != s.prints[i] || len(res.Placements) != len(c.jobs) {
			rc.failed += len(c.jobs)
		}
		results = append(results, res)
	}
	rc.stop(s.jobsPerRound)
	rc.keep = studyKeep{results: results, accs: accs}
	return nil
}

// studyKeep is what a round retains: the researcher's 42 results, and in a
// traced round what the scheduler wrappers measured per kind.
type studyKeep struct {
	results []*core.Result
	accs    map[string]*schedAcc
}

// tracedCell is core.Run spelled out over the same public functions, with
// a span at each layer boundary and the timing wrappers around the
// scheduler (layer sched) and around the auditor (layer audit).
func tracedCell(tr *tracer, parent int32, c studyCell, total *schedAcc) (*core.Result, error) {
	cell := tr.begin(parent, c.key(), "driver")
	defer tr.finish(cell)
	cfg := c.config(true)
	pol, err := sched.PolicyByName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	mk, err := sched.MakerFor(cfg.Scheduler, pol)
	if err != nil {
		return nil, err
	}
	bare := mk(cfg.Procs)
	var inAcc, outAcc schedAcc
	inner, err := wrapTimed(bare, &inAcc)
	if err != nil {
		return nil, err
	}
	aud := audit.New(cfg.Procs, inner, audit.OptionsForKind(cfg.Scheduler, pol))
	outer, err := wrapTimed(aud, &outAcc)
	if err != nil {
		return nil, err
	}

	run := tr.begin(cell, "sim.Run", "sim")
	ps, err := sim.Run(sim.Machine{Procs: cfg.Procs}, c.jobs, outer, nil)
	tr.finish(run)
	if err != nil {
		return nil, err
	}
	if err := aud.Err(); err != nil {
		return nil, err
	}
	// The auditor's calls fold into one span under sim.Run and the
	// scheduler's into one per method under that, so a layer's self time
	// is its span minus its children, as for the plain spans.
	a := tr.fold(run, "audit.Auditor", "audit", outAcc.total())
	tr.fold(a, "sched.Arrive", "sched", inAcc.arrive)
	tr.fold(a, "sched.Complete", "sched", inAcc.complete)
	tr.fold(a, "sched.Launch", "sched", inAcc.launch)
	tr.fold(a, "sched.NextWake", "sched", inAcc.wake)
	total.merge(&inAcc)

	th := job.PaperThresholds()
	m := tr.begin(cell, "metrics", "metrics")
	res := &core.Result{
		Config:      cfg,
		Report:      metrics.Analyze(bare.Name(), ps, th, cfg.Procs),
		Outcomes:    metrics.FromPlacements(ps, th),
		Placements:  ps,
		Fingerprint: metrics.Fingerprint(ps),
	}
	tr.finish(m)
	return res, nil
}

func metricKind(kind string) string { return strings.ReplaceAll(kind, ":", "") }

func (s *study) probe(pc *probeCtx) error {
	keep := pc.traced.keep.(studyKeep)
	jobs := float64(s.jobsPerRound)
	var all schedAcc
	for kind, acc := range keep.accs {
		all.merge(acc)
		perKind := jobs / float64(len(studyKinds))
		pc.out["sched.busy_us_per_job."+metricKind(kind)] = micros(acc.busy()) / perKind
	}
	self := pc.tr.selfByLayer()
	pc.out["workload.generate_us_per_job"] = micros(s.genPerJob)
	pc.out["sched.busy_us_per_job"] = micros(all.busy()) / jobs
	pc.out["sched.busy_share"] = all.busy().Seconds() / pc.traced.wall.Seconds()
	pc.out["sched.launch_calls_per_job"] = float64(all.launch.n) / jobs
	pc.out["sched.launch_useful_ratio"] = float64(all.useful) / float64(all.launch.n)
	pc.out["sim.self_us_per_job"] = micros(self["sim"]) / jobs
	pc.out["audit.us_per_job"] = micros(self["audit"]) / jobs
	pc.out["metrics.us_per_job"] = micros(self["metrics"]) / jobs
	return nil
}
