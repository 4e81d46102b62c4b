// Command sweep runs a factorial scheduling study and emits long-form CSV:
// one row per (workload × load × estimate model × scheduler × policy) cell.
//
//	sweep -models CTC,SDSC -jobs 3000 -loads 0.7,0.85,0.95 \
//	      -scheds conservative,easy -policies FCFS,SJF,XF -ests exact,actual \
//	      -j 8 -cache-dir .sweepcache -journal run.jsonl -o study.csv
//
// Cells fan out across -j workers (default: one per CPU; -j 1 runs them one
// at a time); record order is byte-identical either way. With
// -cache-dir, finished cells are content-addressed on disk so a repeated
// sweep is near-instant; with -journal, every cell start/finish and the
// end-of-run summary are appended as JSON Lines.
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

	"repro/internal/prof"
	"repro/internal/runner"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func main() {
	var (
		models   = flag.String("models", "CTC", "comma-separated trace models (CTC, SDSC)")
		jobs     = flag.Int("jobs", 3000, "jobs per workload")
		seed     = flag.Int64("seed", 42, "random seed")
		baseLoad = flag.Float64("base-load", 0.6, "offered load the base workloads are generated at")
		loads    = flag.String("loads", "", "comma-separated target loads (empty: as generated)")
		scheds   = flag.String("scheds", "conservative,easy", "comma-separated scheduler kinds")
		policies = flag.String("policies", "FCFS,SJF,XF", "comma-separated priority policies")
		ests     = flag.String("ests", "exact", "comma-separated estimate models")
		out      = flag.String("o", "", "output CSV file (default stdout)")
		quiet    = flag.Bool("q", false, "suppress per-cell progress and the run summary on stderr")
		workers  = flag.Int("j", runtime.NumCPU(), "parallel workers (1 runs the cells one at a time)")
		cacheDir = flag.String("cache-dir", "", "content-addressed result cache directory (empty: no cache)")
		journal  = flag.String("journal", "", "append a JSONL run journal to this file")
		auditOn  = flag.Bool("audit", true, "run every cell under the invariant auditor; any violation fails the sweep")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (post-GC) to this file on exit")
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
				fmt.Fprintln(os.Stderr, "sweep:", err)
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
		m, err := workload.ByName(name, *baseLoad)
		if err != nil {
			fatal(err)
		}
		js, err := m.Generate(*jobs, *seed)
		if err != nil {
			fatal(err)
		}
		design.Workloads = append(design.Workloads, sweep.Workload{
			Name: m.Name, Jobs: js, Procs: m.Procs, BaseLoad: *baseLoad,
		})
	}
	if *loads != "" {
		for _, s := range splitList(*loads) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				fatal(fmt.Errorf("bad load %q: %w", s, err))
			}
			design.Loads = append(design.Loads, v)
		}
	}

	opt := sweep.Options{Workers: *workers, NoAudit: !*auditOn}
	if !*quiet {
		opt.Progress = os.Stderr
	}
	if *cacheDir != "" {
		cache, err := runner.OpenCache(*cacheDir, sweep.CacheSalt)
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
	// Always keep a journal, even writer-less: it carries the run summary.
	j := runner.NewJournal(journalW)
	opt.Journal = j

	recs, err := sweep.RunWith(context.Background(), design, opt)
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr, "sweep:", j.Summary())
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	if err := sweep.WriteCSV(w, recs); err != nil {
		fatal(err)
	}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
