// Trace study: the full site-analyst workflow on one page. Start from a
// workload log (here: a synthetic one standing in for your site's SWF
// file), fit a statistical model to it, regenerate fresh workloads with a
// realistic day/night submission cycle, and run a factorial scheduler study
// over them — the methodology a center would use to evaluate a scheduler
// change against its own history rather than someone else's benchmark.
//
//	go run ./examples/trace_study
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// Step 1: the "site log". In production this comes from swf.Parse on
	// your accounting file; here a built-in model plays that role.
	site, err := workload.NewSDSC(0.75)
	if err != nil {
		log.Fatal(err)
	}
	history, err := site.Generate(4000, 99)
	if err != nil {
		log.Fatal(err)
	}
	history = workload.ApplyEstimates(history, workload.Actual{}, 100)
	fmt.Printf("site log: %d jobs, offered load %.2f\n",
		len(history), trace.OfferedLoad(history, site.Procs))

	// Step 2: fit a generator to the log. The fitted model resamples the
	// observed runtime/width distributions per job category, so fresh
	// workloads share the log's statistical character without replaying
	// its exact accidents.
	fitted, err := workload.Fit("site", history, site.Procs, workload.FitOptions{Smooth: true})
	if err != nil {
		log.Fatal(err)
	}
	fitted.Daily = workload.StandardDaily() // add the diurnal cycle replay loses
	future, err := fitted.Generate(2500, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted model: regenerated %d jobs, offered load %.2f\n\n",
		len(future), trace.OfferedLoad(future, site.Procs))

	// Step 3: the factorial study — candidate schedulers × the loads the
	// site expects after its next expansion, under realistic user
	// estimates (the Estimates axis rewrites them per cell).
	design := sweep.Design{
		Workloads: []sweep.Workload{{
			Name: "site-fitted", Jobs: future, Procs: site.Procs,
		}},
		Schedulers: []string{"conservative", "easy", "selective:adaptive", "slack:1"},
		Policies:   []string{"FCFS", "SJF"},
		Estimates:  []string{"actual"},
		Loads:      []float64{0.7, 0.85},
		Seed:       11,
	}
	recs, err := sweep.RunWith(context.Background(), design, sweep.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-24s %-6s %6s %12s %10s %14s %8s\n",
		"scheduler", "policy", "load", "avg slowdwn", "gini", "max turnaround", "util%")
	fmt.Println(strings.Repeat("-", 88))
	for _, r := range recs {
		fmt.Printf("%-24s %-6s %6.2f %12.2f %10.3f %14d %8.1f\n",
			r.Scheduler, r.Policy, r.Load, r.Slowdown, r.Gini, r.MaxTurn, 100*r.Utilization)
	}

	fmt.Println("\nfull long-form CSV (pipe into your plotting tool):")
	if err := sweep.WriteCSV(os.Stdout, recs[:2]); err != nil {
		log.Fatal(err)
	}
}
