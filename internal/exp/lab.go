package exp

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/runner"
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

// validate checks parameters with sweep's own load check, so a load no
// cell could run is refused before any experiment starts.
func (p Params) validate() error {
	if p.Jobs < 1 {
		return fmt.Errorf("exp: Params.Jobs = %d", p.Jobs)
	}
	for _, load := range []float64{p.NormalLoad, p.HighLoad} {
		if err := sweep.CheckLoad(load); err != nil {
			return fmt.Errorf("exp: %w", err)
		}
	}
	if p.HighLoad < p.NormalLoad {
		return fmt.Errorf("exp: HighLoad %v below NormalLoad %v", p.HighLoad, p.NormalLoad)
	}
	return nil
}

// base names a trace's base workload: Jobs jobs from Seed, generated at
// NormalLoad.
func (p Params) base(traceName string) sweep.Base {
	return sweep.Base{Model: traceName, Jobs: p.Jobs, Seed: p.Seed, Load: p.NormalLoad}
}

// key names the cell of a trace's base workload scaled to load, under an
// estimate model, a scheduler and a policy.
func (p Params) key(traceName string, load float64, est, kind, pol string) sweep.Key {
	return sweep.Key{Base: p.base(traceName), Load: load, Estimates: est, Scheduler: kind, Policy: pol}
}

// cross lists a trace's cells at load for every estimate model, scheduler
// and policy, nested in that order.
func (p Params) cross(traceName string, load float64, ests, kinds, pols []string) []sweep.Key {
	var ks []sweep.Key
	for _, est := range ests {
		for _, kind := range kinds {
			for _, pol := range pols {
				ks = append(ks, p.key(traceName, load, est, kind, pol))
			}
		}
	}
	return ks
}

// rows cuts keys into consecutive rows of n cells.
func rows(keys []sweep.Key, n int) [][]sweep.Key {
	var out [][]sweep.Key
	for ; len(keys) > 0; keys = keys[n:] {
		out = append(out, keys[:n])
	}
	return out
}

// Lab runs experiments at P over one sweep.Memo: a base workload is
// generated once and a job set prepared once, whichever cell or render
// reads it first.
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

// Procs returns the machine size for a trace name.
func (l *Lab) Procs(traceName string) (int, error) {
	w, err := l.m.Base(l.P.base(traceName))
	return w.Procs, err
}

// Workload returns the jobs for (trace, load, estimate model), generating
// and caching on first use: the base trace shrinks its inter-arrival gaps
// to reach load, exactly as the paper does.
func (l *Lab) Workload(traceName string, load float64, estModel string) ([]*job.Job, error) {
	return l.m.Jobs(l.P.key(traceName, load, estModel, "", ""))
}

// Results hands a render its experiment's cells, as declared, and their
// results. Get cannot fail: every declared cell ran before the render.
type Results struct {
	Keys []sweep.Key
	Get  func(sweep.Key) *core.Result
}

// RunExperiments runs the union of the experiments' cells, each distinct
// cell once, through sweep.RunCells on opt's workers. Meanwhile the caller
// renders each experiment as soon as its own cells are done: those that
// read no cell first, then the rest in exps' order. The tables come back in
// exps' order, the same at any worker count. opt.Progress gets a line per
// cell and, after a run without errors, one closing line whose wall and
// CPU time cover the renders too: "N cells, M experiments: wall …, cpu …",
// or "M experiments: …" when none of them reads a cell.
func RunExperiments(ctx context.Context, l *Lab, exps []Experiment, opt runner.Options) ([]*Table, error) {
	declared := make([][]sweep.Key, len(exps))
	index := make(map[sweep.Key]int)
	var keys []sweep.Key
	for i, e := range exps {
		if e.Cells != nil {
			declared[i] = e.Cells(l.P)
		}
		for _, k := range declared[i] {
			if _, ok := index[k]; !ok {
				index[k] = len(keys)
				keys = append(keys, k)
			}
		}
	}

	start := time.Now()
	results := make([]*core.Result, len(keys))
	done := make([]chan struct{}, len(keys))
	for j := range done {
		done[j] = make(chan struct{})
	}
	ctx, cancel := context.WithCancel(ctx)
	finished := make(chan struct{})
	var runErr error
	go func() {
		defer close(finished)
		_, runErr = sweep.RunCells(ctx, &l.m, keys, opt, func(j int, res *core.Result) (struct{}, error) {
			results[j] = res
			close(done[j])
			return struct{}{}, nil
		})
	}()
	defer func() {
		cancel()
		<-finished
	}()

	tables := make([][]*Table, len(exps))
	render := func(i int) error {
		e := exps[i]
		for _, k := range declared[i] {
			select {
			case <-done[index[k]]:
			case <-finished:
				if runErr != nil {
					return runErr
				}
			}
		}
		t0 := time.Now()
		defer func() { opt.Progress.Tally(time.Since(t0)) }()
		var err error
		tables[i], err = e.Render(l, Results{Keys: declared[i], Get: func(k sweep.Key) *core.Result {
			if !slices.Contains(declared[i], k) {
				panic(fmt.Sprintf("exp: %s reads cell %s, which it does not declare", e.ID, k))
			}
			return results[index[k]]
		}})
		if err != nil {
			return fmt.Errorf("exp: %s: %w", e.ID, err)
		}
		return nil
	}
	// The experiments that read no cell render first, while the cells run.
	for _, cellFree := range []bool{true, false} {
		for i := range exps {
			if (len(declared[i]) == 0) == cellFree {
				if err := render(i); err != nil {
					return nil, err
				}
			}
		}
	}
	<-finished
	if runErr == nil {
		what := fmt.Sprintf("%d experiment", len(exps))
		if len(exps) != 1 {
			what += "s"
		}
		if len(keys) > 0 {
			what = fmt.Sprintf("%d cells, %s", len(keys), what)
		}
		opt.Progress.Summary(what, start)
	}
	return slices.Concat(tables...), runErr
}
