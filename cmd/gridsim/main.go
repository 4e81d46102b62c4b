// Command gridsim simulates multi-site grid scheduling with the submission
// strategies of the authors' HPDC'02 companion paper: single-site
// round-robin, omniscient least-loaded routing, and multiple simultaneous
// requests (replicate to every site, first start wins, cancel the rest).
//
//	gridsim -sites 4 -procs 128 -jobs 4000 -sched easy
//	gridsim -sites 2 -procs 256 -routing replicate-all -est actual
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/grid"
)

func main() {
	var (
		nSites  = flag.Int("sites", 4, "number of identical sites")
		procs   = flag.Int("procs", 128, "processors per site")
		jobs    = flag.Int("jobs", 4000, "number of jobs")
		seed    = flag.Int64("seed", 42, "random seed")
		load    = flag.Float64("load", 0.75, "aggregate offered load across the grid")
		est     = flag.String("est", "actual", "estimate model: exact, actual, or R=<factor>")
		kind    = flag.String("sched", "easy", "per-site scheduler kind")
		policy  = flag.String("policy", "FCFS", "per-site priority policy")
		routing = flag.String("routing", "", "single, least-loaded, replicate-all (default: compare all three)")
	)
	flag.Parse()

	js, err := grid.SDSCJobs(*jobs, *seed, *load, *est, *nSites, *procs)
	if err != nil {
		fatal(err)
	}
	routings, err := pickRoutings(*routing)
	if err != nil {
		fatal(err)
	}
	reps, err := grid.Compare(js, *nSites, *procs, *kind, *policy, routings)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d sites × %d procs, %d jobs, %s(%s), estimates=%s\n\n",
		*nSites, *procs, len(js), *kind, *policy, *est)
	fmt.Printf("%-14s %12s %12s %14s %16s\n", "routing", "avg slowdwn", "avg wait", "max turnaround", "utilization %")
	fmt.Println(strings.Repeat("-", 74))
	for i, rep := range reps {
		fmt.Printf("%-14s %12.2f %12.1f %14d %16.1f\n",
			routings[i].String(), rep.Overall.MeanSlowdown, rep.Overall.MeanWait,
			rep.Overall.MaxTurnaround, 100*rep.Utilization)
	}
}

func pickRoutings(s string) ([]grid.Routing, error) {
	switch s {
	case "":
		return []grid.Routing{grid.Single, grid.LeastLoaded, grid.ReplicateAll}, nil
	case "single":
		return []grid.Routing{grid.Single}, nil
	case "least-loaded":
		return []grid.Routing{grid.LeastLoaded}, nil
	case "replicate-all":
		return []grid.Routing{grid.ReplicateAll}, nil
	default:
		return nil, fmt.Errorf("unknown routing %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gridsim:", err)
	os.Exit(1)
}
