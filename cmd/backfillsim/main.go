// Command backfillsim runs one scheduling simulation and prints a full
// metric report: overall and per-category slowdowns, turnaround and wait
// times, worst cases, and utilization. On request it also renders the
// schedule: a text chart of machine use, queue depth and (for small runs)
// a per-job Gantt chart, weekday×hour heatmaps, or a vector Gantt chart.
//
// Workloads come from either a synthetic trace model or a Standard Workload
// Format file:
//
//	backfillsim -model CTC -jobs 5000 -load 0.85 -sched easy -policy SJF
//	backfillsim -swf /path/to/CTC-SP2.swf -sched conservative
//	backfillsim -model SDSC -est actual -sched selective:adaptive -policy XF
//	backfillsim -model SDSC -jobs 30 -policy SJF -chart 100 -heatmap -svg gantt.svg
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/swf"
	"repro/internal/trace"
	"repro/internal/viz"
)

func main() {
	os.Exit(cli.Status("backfillsim", run(os.Args[1:], os.Stdout), os.Stderr))
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("backfillsim", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		model    = fs.String("model", "CTC", "synthetic trace model: CTC or SDSC (ignored with -swf)")
		swfPath  = fs.String("swf", "", "read workload from this SWF file instead of a synthetic model")
		jobCount = fs.Int("jobs", 5000, "number of jobs to generate (or keep from the SWF file)")
		seed     = fs.Int64("seed", 42, "random seed")
		load     = fs.Float64("load", 0.85, "offered load for synthetic traces")
		est      = fs.String("est", "keep", "estimate model: keep, exact, actual, or R=<factor> (keep preserves SWF estimates; synthetic models generate exact ones)")
		sched    = fs.String("sched", "easy", "scheduler kind as sched.MakerFor spells it, such as easy or slack:1; an unknown kind lists every spelling")
		policy   = fs.String("policy", "FCFS", "priority policy: FCFS, SJF, XF, LJF, WFP")
		procs    = fs.Int("procs", 0, "machine size override (default: model/trace size)")
		auditOn  = fs.Bool("audit", true, "run under the invariant auditor; any violation fails the run")
		chart    = fs.Int("chart", 0, "also draw the schedule as a text chart this many columns wide (0: no chart)")
		heat     = fs.Bool("heatmap", false, "also render weekday×hour utilization and arrival heatmaps")
		svgPath  = fs.String("svg", "", "also write a vector Gantt chart to this SVG file")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	jobs, machprocs, err := loadWorkload(*swfPath, *model, *jobCount, *seed, *load)
	if err != nil {
		return err
	}
	if *procs > 0 {
		if *procs < machprocs {
			jobs = trace.FilterWidth(jobs, *procs)
		}
		machprocs = *procs
	}

	if jobs, err = sweep.Prepare(jobs, 1, *est, *seed+1); err != nil {
		return err
	}

	cfg := core.Config{Procs: machprocs, Scheduler: *sched, Policy: *policy, Audit: *auditOn}
	start := time.Now()
	res, err := core.Run(cfg, jobs)
	if err != nil {
		return err
	}
	printReport(out, res, len(jobs), machprocs, time.Since(start))

	if *chart > 0 {
		fmt.Fprintln(out)
		if err := viz.Render(out, res.Placements, viz.Options{Procs: machprocs, Width: *chart}); err != nil {
			return err
		}
	}
	if *svgPath != "" {
		if err := writeSVG(*svgPath, res, machprocs); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *svgPath)
	}
	if *heat {
		fmt.Fprintln(out)
		util, err := metrics.UtilizationHeatmap(res.Placements, machprocs)
		if err != nil {
			return err
		}
		if err := viz.RenderHeatmap(out, util, "utilization heatmap"); err != nil {
			return err
		}
		fmt.Fprintln(out)
		return viz.RenderHeatmap(out, metrics.ArrivalHeatmap(res.Placements), "arrival heatmap (jobs/hour)")
	}
	return nil
}

func loadWorkload(swfPath, model string, jobs int, seed int64, load float64) ([]*job.Job, int, error) {
	if swfPath != "" {
		tr, err := swf.Open(swfPath, swf.Options{MaxJobs: jobs})
		if err != nil {
			return nil, 0, err
		}
		if tr.Skipped > 0 {
			fmt.Fprintf(os.Stderr, "backfillsim: skipped %d unusable records\n", tr.Skipped)
		}
		return tr.Jobs, tr.MaxProcs, nil
	}
	w, err := sweep.Base{Model: model, Jobs: jobs, Seed: seed, Load: load}.Generate()
	return w.Jobs, w.Procs, err
}

func writeSVG(path string, res *core.Result, procs int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := viz.RenderSVG(f, res.Placements, viz.SVGOptions{Procs: procs}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printReport(out io.Writer, res *core.Result, jobs, procs int, elapsed time.Duration) {
	r := res.Report
	fmt.Fprintf(out, "scheduler        %s\n", r.Scheduler)
	fmt.Fprintf(out, "jobs             %d on %d processors\n", jobs, procs)
	fmt.Fprintf(out, "simulated span   %s\n", time.Duration(r.Makespan)*time.Second)
	fmt.Fprintf(out, "utilization      %.1f%%\n", 100*r.Utilization)
	fmt.Fprintf(out, "loss of capacity %.1f%% (idle while jobs queued)\n", 100*r.LossOfCapacity)
	fmt.Fprintf(out, "wall time        %s\n\n", elapsed.Round(time.Millisecond))

	row := func(name string, s metrics.Summary) {
		fmt.Fprintf(out, "%-18s %6d  %12.2f  %14.1f  %12.1f  %14d\n",
			name, s.N, s.MeanSlowdown, s.MeanTurnaround, s.MeanWait, s.MaxTurnaround)
	}
	fmt.Fprintf(out, "%-18s %6s  %12s  %14s  %12s  %14s\n",
		"class", "jobs", "avg slowdown", "avg turnaround", "avg wait", "max turnaround")
	fmt.Fprintln(out, "--------------------------------------------------------------------------------------")
	row("overall", r.Overall)
	for _, c := range job.Categories() {
		row(c.String(), r.ByCategory[c])
	}
	row("well-estimated", r.ByQuality[job.WellEstimated])
	row("poorly-estimated", r.ByQuality[job.PoorlyEstimated])
	fmt.Fprintf(out, "\nschedule fingerprint: %016x\n", res.Fingerprint)
}
