package exp

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/trace"
	"repro/internal/workload"
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
	if p.NormalLoad <= 0 || p.HighLoad <= 0 {
		return fmt.Errorf("exp: loads must be positive (normal=%v high=%v)", p.NormalLoad, p.HighLoad)
	}
	if p.HighLoad < p.NormalLoad {
		return fmt.Errorf("exp: HighLoad %v below NormalLoad %v", p.HighLoad, p.NormalLoad)
	}
	return nil
}

// group is a minimal memoizing singleflight: concurrent callers of Do with
// the same key share one execution and — forever after — its result. It is
// the concurrency-safe version of the lazy maps the Lab used when
// experiments ran strictly serially.
type group[V any] struct {
	mu    sync.Mutex
	calls map[string]func() (V, error)
}

// Do runs fn once per key; other callers block until the first finishes.
// fn runs outside the group lock, so calls for different keys (including
// nested Do calls from within fn) proceed concurrently.
func (g *group[V]) Do(key string, fn func() (V, error)) (V, error) {
	g.mu.Lock()
	call, ok := g.calls[key]
	if !ok {
		if g.calls == nil {
			g.calls = make(map[string]func() (V, error))
		}
		call = sync.OnceValues(fn)
		g.calls[key] = call
	}
	g.mu.Unlock()
	return call()
}

// Lab memoizes workloads and simulation results so experiments that share
// configurations (Figure 1 and Table 4, for instance) pay for each
// simulation once. A Lab is safe for concurrent use: experiments running
// in parallel (see RunExperiments) that request the same configuration
// share a single simulation instead of duplicating it.
type Lab struct {
	P Params

	workloads group[[]*job.Job]
	results   group[*core.Result]
	machines  group[int]
}

// NewLab builds a Lab, validating the parameters.
func NewLab(p Params) (*Lab, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &Lab{P: p}, nil
}

// Load names the two load conditions.
type Load string

// The paper's two load conditions.
const (
	NormalLoad Load = "normal"
	HighLoad   Load = "high"
)

// Procs returns the machine size for a trace name.
func (l *Lab) Procs(traceName string) (int, error) {
	return l.machines.Do(traceName, func() (int, error) {
		m, err := workload.ByName(traceName, 0.5)
		if err != nil {
			return 0, err
		}
		return m.Procs, nil
	})
}

// Workload returns the jobs for (trace, load, estimate model), generating
// and caching on first use. Base traces are generated at NormalLoad and the
// high-load variant shrinks inter-arrival gaps, exactly as the paper does.
func (l *Lab) Workload(traceName string, load Load, estModel string) ([]*job.Job, error) {
	key := traceName + "|" + string(load) + "|" + estModel
	return l.workloads.Do(key, func() ([]*job.Job, error) {
		baseKey := traceName + "|" + string(load) + "|base"
		base, err := l.workloads.Do(baseKey, func() ([]*job.Job, error) {
			model, err := workload.ByName(traceName, l.P.NormalLoad)
			if err != nil {
				return nil, err
			}
			jobs, err := model.Generate(l.P.Jobs, l.P.Seed)
			if err != nil {
				return nil, err
			}
			if load == HighLoad {
				jobs, err = trace.ScaleLoad(jobs, l.P.NormalLoad/l.P.HighLoad)
				if err != nil {
					return nil, err
				}
			}
			return jobs, nil
		})
		if err != nil {
			return nil, err
		}
		em, err := workload.EstimateModelByName(estModel)
		if err != nil {
			return nil, err
		}
		return workload.ApplyEstimates(base, em, l.P.Seed+1), nil
	})
}

// Result runs (or returns the cached run of) one configuration.
func (l *Lab) Result(traceName string, load Load, estModel, scheduler, policy string) (*core.Result, error) {
	key := traceName + "|" + string(load) + "|" + estModel + "|" + scheduler + "|" + policy
	return l.results.Do(key, func() (*core.Result, error) {
		jobs, err := l.Workload(traceName, load, estModel)
		if err != nil {
			return nil, err
		}
		procs, err := l.Procs(traceName)
		if err != nil {
			return nil, err
		}
		res, err := core.Run(core.Config{
			Procs:     procs,
			Scheduler: scheduler,
			Policy:    policy,
			Audit:     true,
		}, jobs)
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", key, err)
		}
		return res, nil
	})
}
