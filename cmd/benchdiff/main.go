// Command benchdiff compares the working tree with another revision on the
// repo's one benchmark, the way a performance claim has to be made: pairs of
// runs that alternate which side goes first, every run kept, and one verdict
// per workload and end-to-end metric. `make bench-compare REF=<rev>` is the
// front door; PERFORMANCE.md §2 says how to read the table.
//
//	benchdiff -ref <rev> [-pairs 10]   # measure, then judge
//	benchdiff                          # judge again what the last comparison measured
//
// With -ref the revision's committed files are unpacked under .bench_build/,
// BENCHMARK.json's command runs in both trees for every workload it lists, and
// each run's result line is appended to .bench_build/compare/parent.jsonl or
// change.jsonl. Workloads, run length, metric directions and bounds all come
// from BENCHMARK.json. The exit status is 1 when any row reads "worse".
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/stats"
)

// spec is what a comparison reads of BENCHMARK.json; a field without a tag
// is matched to its lower-case key.
type spec struct {
	Command    []string
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []struct {
		Name, Better string
		Bound        float64
	} `json:"end_to_end"`
}

// result is one line of parent.jsonl or change.jsonl: the benchmark's own
// result line behind the workload, seed and pair of the run that printed it.
type result struct {
	Workload          string
	Attempted, Failed int64
	Metrics           map[string]struct{ Value float64 }
}

var sides = [2]string{"parent", "change"}

// resultsDir holds one <side>.jsonl per side, a line per run.
func resultsDir(root string) string { return filepath.Join(root, ".bench_build", "compare") }

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, ".", os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// run is main with its surroundings passed in; root is the checkout, "." or
// an absolute path.
func run(ctx context.Context, root string, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ref := fs.String("ref", "", "revision to measure the working tree against; empty judges the runs of the last comparison again")
	pairs := fs.Int("pairs", 10, "parent/change pairs per workload; fewer than ten can show a regression but never a gain")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var s spec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(b, &s)
	}
	if err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if *ref != "" {
		if err := measure(ctx, &s, root, *ref, *pairs, stderr); err != nil {
			return err
		}
	}
	var runs [2]map[string][]result
	for i, side := range sides {
		b, err := os.ReadFile(filepath.Join(resultsDir(root), side+".jsonl"))
		if err == nil {
			runs[i], err = parseResults(b)
		}
		if err != nil {
			return fmt.Errorf("%s runs: %w", side, err)
		}
	}
	return judge(&s, runs[0], runs[1], stdout)
}

// measure unpacks ref's committed files under .bench_build/ (git archive, not
// git worktree: nothing is registered in .git), replaces the last comparison's
// runs with pairs new ones per workload and side, and removes the unpacked
// tree again whatever happened in between.
func measure(ctx context.Context, s *spec, root, ref string, pairs int, stderr io.Writer) error {
	if pairs < 1 || len(s.Command) < 2 {
		return fmt.Errorf("need -pairs of at least 1 and a command with a script in BENCHMARK.json, have %d and %v", pairs, s.Command)
	}
	script, tree := s.Command[len(s.Command)-1], filepath.Join(root, ".bench_build", "parent")
	defer os.RemoveAll(tree)
	sh := exec.CommandContext(ctx, "sh", "-c", `git cat-file -e "$0:$1" && rm -rf "$2" "$3" && mkdir -p "$2" "$3" && git archive "$0" | tar -x -C "$2"`,
		ref, script, tree, resultsDir(root))
	sh.Dir, sh.Stderr = root, stderr
	if err := sh.Run(); err != nil {
		return fmt.Errorf("%s cannot be a parent (it needs %s): %w", ref, script, err)
	}
	trees := [2]string{tree, root}
	var lines [2][]byte
	for pair := 0; pair < pairs; pair++ {
		// The running order flips every pair and the seed every two, so
		// each seed is measured in both orders.
		seed := 1 + pair/2%2
		for _, w := range s.Workloads {
			for k := 0; k < 2; k++ {
				i := (pair + k) % 2
				cmd := exec.CommandContext(ctx, s.Command[0], append(append([]string{}, s.Command[1:]...),
					"--workload", w.Name, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(s.RunSeconds), "--trace", "0")...)
				cmd.Dir, cmd.Stderr = trees[i], stderr
				// A run that failed verification exits non-zero and still
				// prints its result line; only a run without one is an error.
				out, runErr := cmd.Output()
				out = bytes.TrimSpace(out)
				line := fmt.Sprintf(`{"workload":%q,"seed":%d,"pair":%d,%s`, w.Name, seed, pair+1, bytes.TrimPrefix(out[bytes.LastIndexByte(out, '\n')+1:], []byte("{")))
				if _, err := parseResults([]byte(line)); err != nil {
					return fmt.Errorf("pair %d, %s on the %s: %v (run: %v)", pair+1, w.Name, sides[i], err, runErr)
				}
				lines[i] = append(append(lines[i], line...), '\n')
				if err := os.WriteFile(filepath.Join(resultsDir(root), sides[i]+".jsonl"), lines[i], 0o644); err != nil {
					return err
				}
				fmt.Fprintf(stderr, "benchdiff: pair %d/%d, %s seed %d: %s done\n", pair+1, pairs, w.Name, seed, sides[i])
			}
		}
	}
	return nil
}

// parseResults groups one side's runs by workload, in the order they ran.
func parseResults(jsonl []byte) (map[string][]result, error) {
	runs := map[string][]result{}
	for n, line := range strings.Split(strings.TrimSpace(string(jsonl)), "\n") {
		var r result
		err := json.Unmarshal([]byte(line), &r)
		if err == nil && (r.Workload == "" || r.Attempted <= 0 || r.Metrics == nil) {
			err = fmt.Errorf("not a result line")
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %v: %.80s", n+1, err, line)
		}
		runs[r.Workload] = append(runs[r.Workload], r)
	}
	return runs, nil
}

// judge prints one row per workload and end-to-end metric and returns an
// error when any reads worse. "gain" needs ten pairs, nine tenths of them won
// (a tie counts for neither side) and medians further apart than the parent's
// inter-quartile range; "worse" is a change median past the metric's bound, or
// a larger share of failed ops; where the parent's own inter-quartile range is
// wider than the bound, medians settle nothing and the row is "unresolved"
// unless the two sides' runs do not overlap at all.
func judge(s *spec, parent, change map[string][]result, stdout io.Writer) error {
	worse := 0
	fmt.Fprintf(stdout, "%-9s %-17s %10s %10s %8s %8s %6s %6s  %s\n", "workload", "metric", "parent", "change", "delta", "IQR", "bound", "won", "verdict")
	for _, w := range s.Workloads {
		p, c := parent[w.Name], change[w.Name]
		if len(p) == 0 || len(p) != len(c) {
			return fmt.Errorf("%s: %d parent runs and %d change runs do not pair up", w.Name, len(p), len(c))
		}
		var pFail, pOps, cFail, cOps int64
		for i := range p {
			pFail, pOps = pFail+p[i].Failed, pOps+p[i].Attempted
			cFail, cOps = cFail+c[i].Failed, cOps+c[i].Attempted
		}
		moreFailed := float64(cFail)/float64(cOps) > float64(pFail)/float64(pOps)
		if moreFailed {
			fmt.Fprintf(stdout, "%s: %d of %d ops failed, %d of %d at the parent\n", w.Name, cFail, cOps, pFail, pOps)
		}
		for _, m := range s.EndToEnd {
			// Values are turned so that larger is better on both sides.
			sign := 1.0
			if m.Better == "lower" {
				sign = -1
			}
			pv, cv := make([]float64, len(p)), make([]float64, len(p))
			wins := 0
			for i := range p {
				pm, ok := p[i].Metrics[m.Name]
				cm, ok2 := c[i].Metrics[m.Name]
				if !ok || !ok2 {
					return fmt.Errorf("%s pair %d: %s is missing from one side", w.Name, i+1, m.Name)
				}
				pv[i], cv[i] = sign*pm.Value, sign*cm.Value
				if cv[i] > pv[i] {
					wins++
				}
			}
			sort.Float64s(pv)
			sort.Float64s(cv)
			q, cMed := stats.Percentiles(pv, 25, 50, 75), stats.Percentile(cv, 50)
			pMed, iqr := q[1], q[2]-q[0]
			limit, last := m.Bound*math.Abs(pMed), len(pv)-1
			verdict := "same"
			switch {
			case moreFailed, pMed-cMed > limit:
				verdict = "worse"
			case len(pv) >= 10 && wins*10 >= len(pv)*9 && cMed-pMed > iqr:
				verdict = "gain"
			case iqr <= limit:
			case cv[last] < pv[0]:
				verdict = "worse"
			case cv[0] <= pv[last]:
				verdict = "unresolved"
			}
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(stdout, "%-9s %-17s %10.6g %10.6g %+7.1f%% %7.1f%% %5.0f%% %3d/%-2d  %s\n", w.Name, m.Name, sign*pMed, sign*cMed,
				100*(cMed/pMed-1), 100*iqr/math.Abs(pMed), 100*m.Bound, wins, len(pv), verdict)
		}
	}
	if worse == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d rows read worse", worse, len(s.Workloads)*len(s.EndToEnd))
}
