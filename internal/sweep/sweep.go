// Package sweep runs factorial simulation studies: the cross product of
// workloads × schedulers × policies × estimate models × loads, each cell a
// full deterministic simulation, emitted as long-form records ready for any
// analysis tool. The paper's evaluation is one such factorial design; this
// package generalises it so downstream users can define their own.
package sweep

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Workload names one workload axis value: a base job set at a target load.
type Workload struct {
	// Name labels the workload in records.
	Name string
	// Jobs are the base jobs (with exact estimates; estimate models are a
	// separate axis).
	Jobs []*job.Job
	// Procs is the machine size.
	Procs int
	// BaseLoad is the offered load the base jobs realise; used to derive
	// scale factors for the Loads axis (0 means "measure it").
	BaseLoad float64
}

// Design declares the full factorial space.
type Design struct {
	Workloads []Workload
	// Schedulers are sched.MakerFor kind strings.
	Schedulers []string
	// Policies are priority policy names.
	Policies []string
	// Estimates are workload.EstimateModelByName strings; empty means
	// {"exact"}.
	Estimates []string
	// Loads are target offered loads; empty means "as generated".
	Loads []float64
	// Seed drives estimate-model randomness.
	Seed int64
}

// Record is one cell's outcome.
type Record struct {
	Workload    string
	Load        float64
	Scheduler   string
	Policy      string
	Estimates   string
	Jobs        int
	Slowdown    float64
	P95Slowdown float64
	Turnaround  float64
	MaxTurn     int64
	Wait        float64
	Utilization float64
	Gini        float64
	// ByCategory holds mean slowdown per SN/SW/LN/LW.
	ByCategory [job.NumCategories]float64
}

// Options tune how a sweep executes. The zero value runs one worker per
// CPU with no progress.
type Options struct {
	// Workers bounds the pool; <= 0 means one worker per CPU, and 1 runs
	// the cells one at a time in axis order.
	Workers int
	// Progress, when non-nil, receives one line per simulated cell, the
	// engine's "[done/total] ... eta" line per finished cell and its
	// summary line.
	Progress io.Writer
	// NoAudit disables the per-cell invariant auditor (internal/audit).
	// The zero value keeps auditing on: every cell runs under the checker
	// and any violation fails the sweep.
	NoAudit bool
}

// cell is one point of the factorial space, with a lazily prepared job set
// shared by every cell of the same (workload, load, estimate) group.
type cell struct {
	key      string
	workload string
	effLoad  float64
	est      string
	sched    string
	pol      string
	procs    int
	prep     func() ([]*job.Job, error)
}

// RunWith executes every cell of the design through the runner engine and
// returns records in deterministic axis order, whatever the worker count:
// parallel and serial sweeps of the same design are byte-identical. Axis
// values are validated eagerly, so a bad scheduler, policy or estimate
// model errors before any simulation happens.
func RunWith(ctx context.Context, d Design, opt Options) ([]Record, error) {
	cells, err := enumerate(d)
	if err != nil {
		return nil, err
	}

	printer := runner.NewPrinter(opt.Progress)

	tasks := make([]runner.Task[Record], len(cells))
	for i, c := range cells {
		c := c
		tasks[i] = runner.Task[Record]{
			Key: c.key,
			Fn: func(ctx context.Context) (Record, error) {
				jobs, err := c.prep()
				if err != nil {
					return Record{}, err
				}
				res, err := core.Run(core.Config{
					Procs: c.procs, Scheduler: c.sched, Policy: c.pol, Audit: !opt.NoAudit,
				}, jobs)
				if err != nil {
					return Record{}, fmt.Errorf("sweep: %s/%s/%s/%s: %w", c.workload, c.sched, c.pol, c.est, err)
				}
				rec := toRecord(c.workload, c.effLoad, c.est, res)
				printer.Printf("%s load=%.2f %s est=%s: slowdown %.2f\n",
					c.workload, c.effLoad, res.Report.Scheduler, c.est, rec.Slowdown)
				return rec, nil
			},
		}
	}

	return runner.Run(ctx, tasks, runner.Options{Workers: opt.Workers, Progress: printer})
}

// enumerate validates the design and expands it into cells in axis order.
// Job-set preparation (load scaling, estimate application) is deferred
// behind sync.OnceValues shared per (workload, load, estimate) group, so a
// parallel sweep prepares each group exactly once.
func enumerate(d Design) ([]cell, error) {
	if len(d.Workloads) == 0 || len(d.Schedulers) == 0 || len(d.Policies) == 0 {
		return nil, fmt.Errorf("sweep: design needs at least one workload, scheduler and policy")
	}
	estimates := d.Estimates
	if len(estimates) == 0 {
		estimates = []string{"exact"}
	}
	loads := d.Loads
	if len(loads) == 0 {
		loads = []float64{0} // sentinel: as generated
	}

	// Eager axis validation, so a bad axis value fails before any cell runs.
	models := make(map[string]workload.EstimateModel, len(estimates))
	for _, est := range estimates {
		em, err := workload.EstimateModelByName(est)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		models[est] = em
	}
	for _, pol := range d.Policies {
		if _, err := sched.PolicyByName(pol); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	refPol, _ := sched.PolicyByName(d.Policies[0])
	for _, kind := range d.Schedulers {
		if _, err := sched.MakerFor(kind, refPol); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}

	var cells []cell
	for _, w := range d.Workloads {
		if len(w.Jobs) == 0 || w.Procs < 1 {
			return nil, fmt.Errorf("sweep: workload %q is empty or has no machine", w.Name)
		}
		w := w
		base := w.BaseLoad
		if base == 0 {
			base = trace.OfferedLoad(w.Jobs, w.Procs)
		}
		for _, load := range loads {
			load, base := load, base
			effLoad := base
			scale := load > 0 && base > 0
			if scale {
				effLoad = load
			}
			atLoad := sync.OnceValues(func() ([]*job.Job, error) {
				if !scale {
					return w.Jobs, nil
				}
				jobs, err := trace.ScaleLoad(w.Jobs, base/load)
				if err != nil {
					return nil, fmt.Errorf("sweep: %q at load %v: %w", w.Name, load, err)
				}
				return jobs, nil
			})
			for _, est := range estimates {
				est := est
				em := models[est]
				prep := sync.OnceValues(func() ([]*job.Job, error) {
					jobs, err := atLoad()
					if err != nil {
						return nil, err
					}
					return workload.ApplyEstimates(jobs, em, d.Seed+1), nil
				})
				for _, kind := range d.Schedulers {
					for _, pol := range d.Policies {
						cells = append(cells, cell{
							key: fmt.Sprintf("sweep|wl=%s|load=%s|est=%s|sched=%s|pol=%s",
								w.Name, loadKey(load), est, kind, pol),
							workload: w.Name,
							effLoad:  effLoad,
							est:      est,
							sched:    kind,
							pol:      pol,
							procs:    w.Procs,
							prep:     prep,
						})
					}
				}
			}
		}
	}
	return cells, nil
}

// loadKey renders the load axis value for a cell's name.
func loadKey(load float64) string {
	if load <= 0 {
		return "asgen"
	}
	return fmt.Sprintf("%g", load)
}

func toRecord(name string, load float64, est string, res *core.Result) Record {
	r := res.Report
	rec := Record{
		Workload:    name,
		Load:        load,
		Scheduler:   res.Config.Scheduler,
		Policy:      res.Config.Policy,
		Estimates:   est,
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

// CSVHeader returns the column names WriteCSV emits.
func CSVHeader() []string {
	cols := []string{
		"workload", "load", "scheduler", "policy", "estimates", "jobs",
		"slowdown", "p95_slowdown", "turnaround", "max_turnaround", "wait",
		"utilization", "gini",
	}
	for _, c := range job.Categories() {
		cols = append(cols, "slowdown_"+strings.ToLower(c.String()))
	}
	return cols
}

// WriteCSV emits records in long form, one row per cell.
func WriteCSV(w io.Writer, recs []Record) error {
	if _, err := fmt.Fprintln(w, strings.Join(CSVHeader(), ",")); err != nil {
		return err
	}
	for _, r := range recs {
		cells := []string{
			r.Workload,
			fmt.Sprintf("%.3f", r.Load),
			r.Scheduler,
			r.Policy,
			r.Estimates,
			fmt.Sprintf("%d", r.Jobs),
			fmt.Sprintf("%.4f", r.Slowdown),
			fmt.Sprintf("%.4f", r.P95Slowdown),
			fmt.Sprintf("%.1f", r.Turnaround),
			fmt.Sprintf("%d", r.MaxTurn),
			fmt.Sprintf("%.1f", r.Wait),
			fmt.Sprintf("%.4f", r.Utilization),
			fmt.Sprintf("%.4f", r.Gini),
		}
		for _, c := range job.Categories() {
			cells = append(cells, fmt.Sprintf("%.4f", r.ByCategory[c]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}
