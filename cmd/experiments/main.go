// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run all
//	experiments -run Figure1,Table4 -jobs 10000 -seed 7
//	experiments -run Figure2 -format csv
//	experiments -run all -j 8 -cache-dir .expcache -journal run.jsonl
//
// Each experiment prints one or more tables; EXPERIMENTS.md records the
// expected shapes and how they compare with the paper. Experiments fan out
// across -j workers (1 runs them one at a time) and share one memoized Lab;
// with -cache-dir, finished tables are content-addressed on disk so a
// repeated run with identical parameters is near-instant.
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

	"repro/internal/exp"
	"repro/internal/prof"
	"repro/internal/runner"
	"repro/internal/viz"
)

func main() {
	var (
		runList    = flag.String("run", "all", "comma-separated experiment IDs, or \"all\"")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		jobs       = flag.Int("jobs", 0, "jobs per trace (default from exp.DefaultParams)")
		seed       = flag.Int64("seed", 0, "random seed (default from exp.DefaultParams)")
		normalLoad = flag.Float64("normal-load", 0, "offered load of the base trace")
		highLoad   = flag.Float64("high-load", 0, "offered load of the high-load condition")
		format     = flag.String("format", "text", "output format: text, csv, or markdown")
		outDir     = flag.String("out", "", "also write one file per experiment into this directory")
		report     = flag.String("report", "", "also write every table into one combined markdown report file")
		figures    = flag.String("figures", "", "also render chartable tables as SVG bar charts into this directory")
		workers    = flag.Int("j", runtime.NumCPU(), "parallel workers (1 runs the experiments one at a time)")
		cacheDir   = flag.String("cache-dir", "", "content-addressed table cache directory (empty: no cache)")
		journal    = flag.String("journal", "", "append a JSONL run journal to this file")
		quiet      = flag.Bool("q", false, "suppress the run summary on stderr")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile (post-GC) to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		stop, err := prof.StartCPU(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer stop()
	}
	if *memProf != "" {
		defer func() {
			if err := prof.WriteHeap(*memProf); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Description)
		}
		return
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
		fatal(err)
	}

	var exps []exp.Experiment
	if *runList == "all" {
		exps = exp.All()
	} else {
		for _, id := range strings.Split(*runList, ",") {
			e, err := exp.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			exps = append(exps, e)
		}
	}

	opt := runner.Options{Workers: *workers}
	if *cacheDir != "" {
		cache, err := runner.OpenCache(*cacheDir, exp.CacheSalt)
		if err != nil {
			fatal(err)
		}
		opt.Cache = cache
	}
	var journalW io.Writer
	if *journal != "" {
		f, err := os.OpenFile(*journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		journalW = f
	}
	// A journal always exists — it carries the run summary — but only
	// persists when -journal names a file.
	j := runner.NewJournal(journalW)
	opt.Journal = j
	lab.SetJournal(j)

	tables, err := exp.RunExperiments(context.Background(), lab, exps, opt)
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr, "experiments:", j.Summary())
	}

	for _, t := range tables {
		var err error
		switch *format {
		case "text":
			err = t.Render(os.Stdout)
		case "csv":
			fmt.Printf("# %s: %s\n", t.ID, t.Title)
			err = t.CSV(os.Stdout)
		case "markdown":
			err = t.Markdown(os.Stdout)
		default:
			err = fmt.Errorf("unknown format %q", *format)
		}
		if err != nil {
			fatal(err)
		}
	}

	if *outDir != "" {
		if err := writeFiles(*outDir, tables, *format); err != nil {
			fatal(err)
		}
	}
	if *report != "" {
		if err := writeReport(*report, p, tables); err != nil {
			fatal(err)
		}
	}
	if *figures != "" {
		if err := writeFigures(*figures, tables); err != nil {
			fatal(err)
		}
	}
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
		f, err := os.Create(filepath.Join(dir, name+".svg"))
		if err != nil {
			return err
		}
		if err := viz.RenderBarChartSVG(f, chart); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// writeReport emits every table into one markdown document.
func writeReport(path string, p exp.Params, tables []*exp.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	write := func() error {
		if _, err := fmt.Fprintf(f,
			"# Backfilling characterization — experiment report\n\n"+
				"Parameters: %d jobs per trace, seed %d, loads %.2f (normal) / %.2f (high).\n\n",
			p.Jobs, p.Seed, p.NormalLoad, p.HighLoad); err != nil {
			return err
		}
		for _, t := range tables {
			if err := t.Markdown(f); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
	ext := ".txt"
	switch format {
	case "csv":
		ext = ".csv"
	case "markdown":
		ext = ".md"
	}
	for _, id := range order {
		f, err := os.Create(filepath.Join(dir, id+ext))
		if err != nil {
			return err
		}
		for _, t := range byID[id] {
			switch format {
			case "csv":
				err = t.CSV(f)
			case "markdown":
				err = t.Markdown(f)
			default:
				err = t.Render(f)
			}
			if err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
