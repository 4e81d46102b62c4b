package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/sweep"
)

// Params size the experiments. The defaults reproduce the paper at a scale
// a laptop handles in seconds; raise Jobs for tighter statistics.
type Params struct {
	// Seed drives every stochastic component.
	Seed int64
	// Jobs is the number of jobs generated per trace.
	Jobs int
	// NormalLoad is the offered load the base traces are calibrated to
	// (the CTC trace's native utilization is ~0.56).
	NormalLoad float64
	// HighLoad is the offered load after the paper's interarrival
	// shrinking; the paper presents high-load results.
	HighLoad float64
}

// DefaultParams returns the standard experiment sizing.
func DefaultParams() Params {
	return Params{Seed: 42, Jobs: 5000, NormalLoad: 0.6, HighLoad: 0.85}
}

// validate normalises and checks parameters.
func (p Params) validate() error {
	if p.Jobs < 1 {
		return fmt.Errorf("exp: Params.Jobs = %d", p.Jobs)
	}
	if !(p.NormalLoad > 0) || !(p.HighLoad > 0) {
		return fmt.Errorf("exp: loads must be positive (normal=%v high=%v)", p.NormalLoad, p.HighLoad)
	}
	if p.HighLoad < p.NormalLoad {
		return fmt.Errorf("exp: HighLoad %v below NormalLoad %v", p.HighLoad, p.NormalLoad)
	}
	return nil
}

// Lab reads the experiments' cells through one sweep.Memo, so experiments
// that share configurations (Figure 1 and Table 4, for instance) pay for
// each simulation once. A Lab is safe for concurrent use: experiments
// running in parallel (see RunExperiments) that request the same
// configuration share a single simulation instead of duplicating it.
type Lab struct {
	P Params

	m sweep.Memo
}

// NewLab builds a Lab, validating the parameters.
func NewLab(p Params) (*Lab, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &Lab{P: p}, nil
}

// base names a trace's base workload: P.Jobs jobs from P.Seed, generated
// at P.NormalLoad.
func (l *Lab) base(traceName string) sweep.Base {
	return sweep.Base{Model: traceName, Jobs: l.P.Jobs, Seed: l.P.Seed, Load: l.P.NormalLoad}
}

// Procs returns the machine size for a trace name.
func (l *Lab) Procs(traceName string) (int, error) {
	w, err := l.m.Base(l.base(traceName))
	return w.Procs, err
}

// Workload returns the jobs for (trace, load, estimate model), generating
// and caching on first use: the base trace shrinks its inter-arrival gaps
// to reach load, exactly as the paper does.
func (l *Lab) Workload(traceName string, load float64, estModel string) ([]*job.Job, error) {
	return l.m.Jobs(sweep.Key{Base: l.base(traceName), Load: load, Estimates: estModel})
}

// Result runs (or returns the cached run of) one configuration.
func (l *Lab) Result(traceName string, load float64, estModel, scheduler, policy string) (*core.Result, error) {
	return l.m.Result(sweep.Key{
		Base: l.base(traceName), Load: load, Estimates: estModel, Scheduler: scheduler, Policy: policy,
	})
}
