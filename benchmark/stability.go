package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the program reads back.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runStability runs k complete sets back to back and compares, for every
// workload and end-to-end metric, how far the sets lie apart with the
// metric's regression bound: two sets of the same code must agree well
// within the bound for the bound to mean anything. It fails when a spread,
// (max − min) / median over the k sets, exceeds half its bound. Every run is
// a process of its own, as it is when the benchmark is used: a set-up in a
// process that has run other workloads before finds the heap grown and its
// pages mapped, and is 5–10 % faster than in a fresh one.
func runStability(k int, specPath string, seed int64, seconds float64, workdir string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for set := 1; set <= k; set++ {
		for _, name := range workloadNames {
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-workdir", workdir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				os.Stdout.Write(out) // the failed run's own report
				return fmt.Errorf("set %d, %s: %w", set, name, err)
			}
			report, line, _ := strings.Cut(strings.TrimSpace(string(out)), "\n{")
			fmt.Printf("set %d: %s\n", set, report)
			var res struct {
				Metrics map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte("{"+line), &res); err != nil {
				return fmt.Errorf("set %d, %s: result line: %w", set, name, err)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				values[name][m] = append(values[name][m], v.Value)
			}
		}
	}

	fmt.Printf("\nstability over %d sets, seed %d: spread = (max - min) / median, limit = bound / 2\n", k, seed)
	fmt.Printf("%-8s %-18s %9s %7s %7s  %s\n", "workload", "metric", "median", "spread", "bound", "sets")
	unstable := 0
	for _, name := range workloadNames {
		for _, m := range spec.EndToEnd {
			xs := values[name][m.Name]
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			med := median(xs)
			spread := (hi - lo) / med
			mark := ""
			if spread > m.Bound/2 {
				mark = "  UNSTABLE"
				unstable++
			}
			fmt.Printf("%-8s %-18s %9.4g %6.2f%% %6.1f%% ", name, m.Name, med, spread*100, m.Bound*100)
			for _, x := range xs {
				fmt.Printf(" %.5g", x)
			}
			fmt.Println(mark)
		}
	}
	if unstable > 0 {
		return fmt.Errorf("%d metrics spread wider than half their bound", unstable)
	}
	return nil
}

// writeGolden regenerates the golden file from the default seed at full
// size: run it after a change that is meant to alter schedules.
func writeGolden(path, workdir string, sz sizes) error {
	g := golden{Seed: defaultSeed, Study: map[string]string{}}
	s := &study{jobsPerTrace: sz.studyJobs}
	if err := s.prepare(defaultSeed); err != nil {
		return err
	}
	warm := &roundCtx{warm: true, hist: &latHist{}}
	if err := s.round(warm); err != nil {
		return err
	}
	if failed, err := s.verify(warm); err != nil || failed > 0 {
		return fmt.Errorf("study does not pass its own differential check (%d jobs failed): %v", failed, err)
	}
	for i, c := range s.cells {
		g.Study[c.key()] = hex(s.prints[i])
	}
	f := &follow{jobs: sz.followJobs, workdir: workdir}
	defer f.cleanup()
	if err := f.prepare(defaultSeed); err != nil {
		return err
	}
	g.Follow = followGolden{Records: int(f.records), StateHash: hex(f.leaderHash)}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
