// Package sweep runs factorial simulation studies: the cross product of
// workloads × schedulers × policies × estimate models × loads, each cell a
// full deterministic simulation, emitted as long-form records ready for any
// analysis tool. The paper's evaluation is one such factorial design; this
// package generalises it so downstream users can define their own.
package sweep

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/runner"
	"repro/internal/trace"
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

// RunWith executes every cell of the design through RunCells and returns
// records in deterministic axis order, whatever the worker count: parallel
// and serial sweeps of the same design are byte-identical. Every cell is
// checked first, so a bad scheduler, policy, estimate model or load errors
// before any simulation happens.
func RunWith(ctx context.Context, d Design, opt Options) ([]Record, error) {
	m := &Memo{noAudit: opt.NoAudit}
	cells, err := enumerate(d, m)
	if err != nil {
		return nil, err
	}
	start, printer := time.Now(), runner.NewPrinter(opt.Progress)
	// Each result becomes its record on the worker that ran it and is
	// dropped: a kept result per cell would hold every job's outcome until
	// the sweep ends.
	recs, err := RunCells(ctx, m, cells, runner.Options{Workers: opt.Workers, Progress: printer},
		func(i int, res *core.Result) (Record, error) {
			rec := cells[i].Record(res)
			printer.Printf("%s load=%.2f %s est=%s: slowdown %.2f\n",
				rec.Workload, rec.Load, res.Report.Scheduler, rec.Estimates, rec.Slowdown)
			return rec, nil
		})
	if err == nil {
		printer.Summary(fmt.Sprintf("%d cells", len(cells)), start)
	}
	return recs, err
}

// RunCells is the one cell runner, behind RunWith and internal/exp: it
// simulates each cell of keys on m's job sets, fanned over runner.Run, and
// returns fn's value for each in key order. fn sees each result as its
// cell finishes, on the worker that ran it, and the result is kept only if
// fn keeps it; an error from fn fails the run. Every key is checked before
// any cell runs.
func RunCells[T any](ctx context.Context, m *Memo, keys []Key, opt runner.Options, fn func(i int, res *core.Result) (T, error)) ([]T, error) {
	for _, k := range keys {
		if err := k.check(); err != nil {
			return nil, err
		}
	}
	tasks := make([]runner.Task[T], len(keys))
	for i, k := range keys {
		tasks[i] = runner.Task[T]{
			Key: "sweep|" + k.String(),
			Fn: func(context.Context) (T, error) {
				res, err := m.run(k)
				if err != nil {
					var zero T
					return zero, err
				}
				return fn(i, res)
			},
		}
	}
	return runner.Run(ctx, tasks, opt)
}

// enumerate hands the design's workloads to m as bases and expands it into
// cell keys in axis order. A design without loads runs each workload at
// its base load, as generated.
func enumerate(d Design, m *Memo) ([]Key, error) {
	if len(d.Workloads) == 0 || len(d.Schedulers) == 0 || len(d.Policies) == 0 {
		return nil, fmt.Errorf("sweep: design needs at least one workload, scheduler and policy")
	}
	estimates := d.Estimates
	if len(estimates) == 0 {
		estimates = []string{"exact"}
	}

	var cells []Key
	seen := make(map[Base]bool, len(d.Workloads))
	for _, w := range d.Workloads {
		if len(w.Jobs) == 0 || w.Procs < 1 {
			return nil, fmt.Errorf("sweep: workload %q is empty or has no machine", w.Name)
		}
		b := Base{Model: w.Name, Jobs: len(w.Jobs), Seed: d.Seed, Load: w.BaseLoad}
		if b.Load == 0 {
			b.Load = trace.OfferedLoad(w.Jobs, w.Procs)
		}
		// Two workloads with one base would share one job set in the memo.
		if seen[b] {
			return nil, fmt.Errorf("sweep: workload %q appears twice", w.Name)
		}
		seen[b] = true
		m.bases.Do(b, func() (Workload, error) { return w, nil })
		loads := d.Loads
		if len(loads) == 0 {
			loads = []float64{b.Load}
		}
		for _, load := range loads {
			for _, est := range estimates {
				for _, kind := range d.Schedulers {
					for _, pol := range d.Policies {
						cells = append(cells, Key{Base: b, Load: load, Estimates: est, Scheduler: kind, Policy: pol})
					}
				}
			}
		}
	}
	return cells, nil
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
	rows := [][]string{CSVHeader()}
	for _, r := range recs {
		row := []string{
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
			row = append(row, fmt.Sprintf("%.4f", r.ByCategory[c]))
		}
		rows = append(rows, row)
	}
	return csv.NewWriter(w).WriteAll(rows)
}
