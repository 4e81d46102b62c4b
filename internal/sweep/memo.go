package sweep

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Base names a base workload: Jobs jobs drawn with Seed from the trace
// model Model calibrated to offered load Load. A design's own workloads are
// named the same way, by their name, their job count, the design's seed and
// their base load.
type Base struct {
	Model string
	Jobs  int
	Seed  int64
	Load  float64
}

// Generate draws the base workload b names, with exact estimates. It is
// the one generator behind cmd/sweep's workloads and internal/exp's Lab.
func (b Base) Generate() (Workload, error) {
	m, err := workload.ByName(b.Model, b.Load)
	if err != nil {
		return Workload{}, err
	}
	jobs, err := m.Generate(b.Jobs, b.Seed)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Name: m.Name, Jobs: jobs, Procs: m.Procs, BaseLoad: b.Load}, nil
}

// Key names one cell of a study: a base workload scaled to a target load,
// under an estimate model, a scheduler and a policy.
type Key struct {
	Base      Base
	Load      float64
	Estimates string
	Scheduler string
	Policy    string
}

// String renders the key for progress lines and errors; distinct keys
// render distinctly.
func (k Key) String() string {
	b := k.Base
	return fmt.Sprintf("wl=%s|jobs=%d|seed=%d|base=%g|load=%g|est=%s|sched=%s|pol=%s",
		b.Model, b.Jobs, b.Seed, b.Load, k.Load, k.Estimates, k.Scheduler, k.Policy)
}

// check refuses a key no cell can run: a bad load, estimate model, policy
// or scheduler. The base is not checked; a design names its own.
func (k Key) check() error {
	if err := CheckLoad(k.Load); err != nil {
		return err
	}
	if _, err := workload.EstimateModelByName(k.Estimates); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	pol, err := sched.PolicyByName(k.Policy)
	if err == nil {
		_, err = sched.MakerFor(k.Scheduler, pol)
	}
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return nil
}

// Record summarises res, the simulation of cell k, as one row.
func (k Key) Record(res *core.Result) Record {
	r := res.Report
	rec := Record{
		Workload:    k.Base.Model,
		Load:        k.Load,
		Scheduler:   res.Config.Scheduler,
		Policy:      res.Config.Policy,
		Estimates:   k.Estimates,
		Jobs:        r.Overall.N,
		Slowdown:    r.Overall.MeanSlowdown,
		P95Slowdown: r.Overall.P95Slowdown,
		Turnaround:  r.Overall.MeanTurnaround,
		MaxTurn:     r.Overall.MaxTurnaround,
		Wait:        r.Overall.MeanWait,
		Utilization: r.Utilization,
		Gini:        metrics.ComputeFairness(res.Outcomes).GiniSlowdown,
	}
	for _, c := range job.Categories() {
		rec.ByCategory[c] = r.ByCategory[c].MeanSlowdown
	}
	return rec
}

// CheckLoad refuses a target load that no scaling can reach.
func CheckLoad(load float64) error {
	if !(load > 0) || math.IsInf(load, 0) {
		return fmt.Errorf("sweep: load %v is not a positive finite number", load)
	}
	return nil
}

// Memo memoizes a study's inputs by cell key: base workloads and the job
// sets prepared from them. It is safe for concurrent use, and concurrent
// reads of one key share a single computation. Results are not kept:
// RunCells hands each to its caller. The zero value is ready and runs
// every simulation under the invariant auditor.
type Memo struct {
	noAudit bool
	bases   group[Base, Workload]
	jobs    group[Key, []*job.Job]
}

// Base returns the base workload b names, generating it on first use.
func (m *Memo) Base(b Base) (Workload, error) {
	return m.bases.Do(b, b.Generate)
}

// Jobs returns cell k's job set, Prepare'd from its base workload at
// k.Load with k.Estimates seeded with Base.Seed+1. Cells that differ only
// in scheduler or policy share one set.
func (m *Memo) Jobs(k Key) ([]*job.Job, error) {
	k.Scheduler, k.Policy = "", ""
	return m.jobs.Do(k, func() ([]*job.Job, error) {
		if err := CheckLoad(k.Load); err != nil {
			return nil, err
		}
		w, err := m.Base(k.Base)
		if err != nil {
			return nil, err
		}
		return Prepare(w.Jobs, k.Base.Load/k.Load, k.Estimates, k.Base.Seed+1)
	})
}

// Prepare is the one recipe that turns base jobs into a cell's: arrival
// gaps scaled by factor, then estimates from the named model seeded with
// seed. The order is part of the result, since ScaleLoad re-sorts by
// arrival and the actual model draws its random numbers in slice order.
func Prepare(jobs []*job.Job, factor float64, estModel string, seed int64) ([]*job.Job, error) {
	em, err := workload.EstimateModelByName(estModel)
	if err != nil {
		return nil, err
	}
	if factor != 1 {
		if jobs, err = trace.ScaleLoad(jobs, factor); err != nil {
			return nil, err
		}
	}
	return workload.ApplyEstimates(jobs, em, seed), nil
}

// run simulates cell k on its memoized job set.
func (m *Memo) run(k Key) (*core.Result, error) {
	w, err := m.Base(k.Base)
	if err != nil {
		return nil, err
	}
	jobs, err := m.Jobs(k)
	if err != nil {
		return nil, err
	}
	res, err := core.Run(core.Config{
		Procs: w.Procs, Scheduler: k.Scheduler, Policy: k.Policy, Audit: !m.noAudit,
	}, jobs)
	if err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", k, err)
	}
	return res, nil
}

// group is a minimal memoizing singleflight: concurrent callers of Do with
// the same key share one execution and, forever after, its result.
type group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]func() (V, error)
}

// Do runs fn once per key; other callers block until the first finishes.
// fn runs outside the group lock, so calls for different keys (including
// nested Do calls from within fn) proceed concurrently.
func (g *group[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	g.mu.Lock()
	call, ok := g.calls[key]
	if !ok {
		if g.calls == nil {
			g.calls = make(map[K]func() (V, error))
		}
		call = sync.OnceValues(fn)
		g.calls[key] = call
	}
	g.mu.Unlock()
	return call()
}
