// Command sweep runs a factorial scheduling study and emits long-form CSV:
// one row per (workload × load × estimate model × scheduler × policy) cell.
//
//	sweep -models CTC,SDSC -jobs 3000 -loads 0.7,0.85,0.95 \
//	      -scheds conservative,easy -policies FCFS,SJF,XF -ests exact,actual \
//	      -j 8 -o study.csv
//
// Cells fan out across -j workers (default: one per CPU; -j 1 runs them one
// at a time); record order is byte-identical either way. Every run
// simulates every cell: stderr carries one progress line per cell and a
// closing summary (cells, wall and CPU time) unless -q.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/prof"
	"repro/internal/sweep"
)

func main() {
	os.Exit(cli.Status("sweep", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		models   = fs.String("models", "CTC", "comma-separated trace models (CTC, SDSC)")
		jobs     = fs.Int("jobs", 3000, "jobs per workload")
		seed     = fs.Int64("seed", 42, "random seed")
		baseLoad = fs.Float64("base-load", 0.6, "offered load the base workloads are generated at")
		loads    = fs.String("loads", "", "comma-separated target loads (empty: as generated)")
		scheds   = fs.String("scheds", "conservative,easy", "comma-separated scheduler kinds")
		policies = fs.String("policies", "FCFS,SJF,XF", "comma-separated priority policies")
		ests     = fs.String("ests", "exact", "comma-separated estimate models")
		out      = fs.String("o", "", "output CSV file (default stdout)")
		quiet    = fs.Bool("q", false, "suppress per-cell progress and the run summary on stderr")
		workers  = fs.Int("j", runtime.NumCPU(), "parallel workers (1 runs the cells one at a time)")
		auditOn  = fs.Bool("audit", true, "run every cell under the invariant auditor; any violation fails the sweep")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile (post-GC) to this file on exit")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
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

	design := sweep.Design{
		Schedulers: splitList(*scheds),
		Policies:   splitList(*policies),
		Estimates:  splitList(*ests),
		Seed:       *seed,
	}
	for _, name := range splitList(*models) {
		w, err := sweep.Base{Model: name, Jobs: *jobs, Seed: *seed, Load: *baseLoad}.Generate()
		if err != nil {
			return err
		}
		design.Workloads = append(design.Workloads, w)
	}
	for _, s := range splitList(*loads) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("bad load %q: %w", s, err)
		}
		design.Loads = append(design.Loads, v)
	}

	opt := sweep.Options{Workers: *workers, NoAudit: !*auditOn}
	if !*quiet {
		opt.Progress = stderr
	}
	recs, err := sweep.RunWith(context.Background(), design, opt)
	if err != nil {
		return err
	}

	if *out == "" {
		return sweep.WriteCSV(stdout, recs)
	}
	return cli.WriteFile(*out, func(w io.Writer) error { return sweep.WriteCSV(w, recs) })
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
