// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run all
//	experiments -run Figure1,Table4 -jobs 10000 -seed 7
//	experiments -run Figure2 -format csv
//	experiments -run all -j 8
//
// Each experiment prints one or more tables; EXPERIMENTS.md records the
// expected shapes and how they compare with the paper. The experiments
// declare the simulation cells they read, and the union of those cells
// fans out across -j workers (1 runs them one at a time), so a cell two
// experiments read runs once. Every run computes its tables: stderr
// carries one progress line per cell and a closing summary unless -q.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/prof"
	"repro/internal/runner"
	"repro/internal/viz"
)

func main() {
	os.Exit(cli.Status("experiments", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runList    = fs.String("run", "all", "comma-separated experiment IDs, or \"all\"")
		list       = fs.Bool("list", false, "list experiment IDs and exit")
		jobs       = fs.Int("jobs", 0, "jobs per trace (default from exp.DefaultParams)")
		seed       = fs.Int64("seed", 0, "random seed (default from exp.DefaultParams)")
		normalLoad = fs.Float64("normal-load", 0, "offered load of the base trace")
		highLoad   = fs.Float64("high-load", 0, "offered load of the high-load condition")
		format     = fs.String("format", "text", "output format: text, csv, or markdown")
		outDir     = fs.String("out", "", "also write one file per experiment into this directory")
		report     = fs.String("report", "", "also write every table into one combined markdown report file")
		figures    = fs.String("figures", "", "also render chartable tables as SVG bar charts into this directory")
		workers    = fs.Int("j", runtime.NumCPU(), "parallel workers (1 runs the cells one at a time)")
		quiet      = fs.Bool("q", false, "suppress per-cell progress and the run summary on stderr")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile (post-GC) to this file on exit")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	switch *format {
	case "text", "csv", "markdown":
	default:
		return fmt.Errorf("unknown format %q", *format)
	}

	if *cpuProf != "" {
		stop, err := prof.StartCPU(*cpuProf)
		if err != nil {
			return err
		}
		defer stop()
	}
	if *memProf != "" {
		defer func() {
			if err == nil {
				err = prof.WriteHeap(*memProf)
			}
		}()
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Description)
		}
		return nil
	}

	p := exp.DefaultParams()
	if *jobs > 0 {
		p.Jobs = *jobs
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	if *normalLoad > 0 {
		p.NormalLoad = *normalLoad
	}
	if *highLoad > 0 {
		p.HighLoad = *highLoad
	}

	lab, err := exp.NewLab(p)
	if err != nil {
		return err
	}

	var exps []exp.Experiment
	if *runList == "all" {
		exps = exp.All()
	} else {
		for _, id := range strings.Split(*runList, ",") {
			e, err := exp.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	}

	opt := runner.Options{Workers: *workers}
	if !*quiet {
		opt.Progress = runner.NewPrinter(stderr)
	}
	tables, err := exp.RunExperiments(context.Background(), lab, exps, opt)
	if err != nil {
		return err
	}

	for _, t := range tables {
		if *format == "csv" {
			fmt.Fprintf(stdout, "# %s: %s\n", t.ID, t.Title)
		}
		if err := write(stdout, t, *format); err != nil {
			return err
		}
	}

	if *outDir != "" {
		if err := writeFiles(*outDir, tables, *format); err != nil {
			return err
		}
	}
	if *report != "" {
		if err := writeReport(*report, p, tables); err != nil {
			return err
		}
	}
	if *figures != "" {
		return writeFigures(*figures, tables)
	}
	return nil
}

// write renders t in format: aligned text, csv or markdown.
func write(w io.Writer, t *exp.Table, format string) error {
	switch format {
	case "csv":
		return t.CSV(w)
	case "markdown":
		return t.Markdown(w)
	}
	return t.Render(w)
}

// writeFigures renders each chartable table as an SVG bar chart; tables
// sharing an ID get numbered suffixes.
func writeFigures(dir string, tables []*exp.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	count := map[string]int{}
	for _, t := range tables {
		chart, ok := t.BarChart()
		if !ok {
			continue
		}
		count[t.ID]++
		name := t.ID
		if count[t.ID] > 1 {
			name = fmt.Sprintf("%s-%d", t.ID, count[t.ID])
		}
		err := cli.WriteFile(filepath.Join(dir, name+".svg"), func(w io.Writer) error { return viz.RenderBarChartSVG(w, chart) })
		if err != nil {
			return err
		}
	}
	return nil
}

// writeReport emits every table into one markdown document.
func writeReport(path string, p exp.Params, tables []*exp.Table) error {
	return cli.WriteFile(path, func(w io.Writer) error {
		if _, err := fmt.Fprintf(w,
			"# Backfilling characterization — experiment report\n\n"+
				"Parameters: %d jobs per trace, seed %d, loads %.2f (normal) / %.2f (high).\n\n",
			p.Jobs, p.Seed, p.NormalLoad, p.HighLoad); err != nil {
			return err
		}
		for _, t := range tables {
			if err := t.Markdown(w); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeFiles groups tables by experiment ID and writes one file each.
func writeFiles(dir string, tables []*exp.Table, format string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	byID := map[string][]*exp.Table{}
	var order []string
	for _, t := range tables {
		if _, seen := byID[t.ID]; !seen {
			order = append(order, t.ID)
		}
		byID[t.ID] = append(byID[t.ID], t)
	}
	ext := map[string]string{"csv": ".csv", "markdown": ".md"}[format]
	if ext == "" {
		ext = ".txt"
	}
	for _, id := range order {
		err := cli.WriteFile(filepath.Join(dir, id+ext), func(w io.Writer) error {
			for _, t := range byID[id] {
				if err := write(w, t, format); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
