// Command benchmark is this repository's benchmark: four in-process
// workloads (study, churn, reads, follow), eight end-to-end metrics that
// carry the same names on every workload, and per-layer metrics measured
// from outside the layers by timing calls into their public functions.
//
//	bash benchmark/run.sh --workload churn --seed 1 --seconds 15 --trace 0
//
// builds the program and runs one workload; the last line of its standard
// output is the result as one JSON object. README.md in this directory has
// the metric definitions, the reason for each workload, which end-to-end
// metric each layer metric should move, and the estimator rules.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const defaultSeed = 1

//go:embed golden.json
var goldenJSON []byte

// golden pins the default seed's outputs at full size: every study cell's
// schedule fingerprint and the follow journal's recovered state hash.
type golden struct {
	Seed   int64             `json:"seed"`
	Study  map[string]string `json:"study"`
	Follow followGolden      `json:"follow"`
}

type followGolden struct {
	Records   int    `json:"records"`
	StateHash string `json:"state_hash"`
}

// sizes fixes how much work a round is. The benchmark runs fullSizes; the
// tests run the same code at a size that finishes in a second.
type sizes struct {
	studyJobs   int // jobs per trace; two traces, 21 cells each
	churnWrites int // acknowledged writes per round
	readsReads  int // reads per round
	queueDepth  int // standing queue on churn and reads
	followJobs  int // jobs in the journal; two records each
}

var fullSizes = sizes{studyJobs: 4000, churnWrites: 8192, readsReads: 20000, queueDepth: 512, followJobs: 20000}

var workloadNames = []string{"study", "churn", "reads", "follow"}

// newWorkload builds the named workload. g is nil when the inputs are not
// the ones the golden was written for.
func newWorkload(name string, sz sizes, workdir string, g *golden) (workload, error) {
	switch name {
	case "study":
		s := &study{jobsPerTrace: sz.studyJobs}
		if g != nil {
			s.golden = g.Study
		}
		return s, nil
	case "reads":
		return &reads{reads: sz.readsReads, depth: sz.queueDepth, workdir: workdir}, nil
	case "follow":
		f := &follow{jobs: sz.followJobs, workdir: workdir}
		if g != nil {
			f.golden = &g.Follow
		}
		return f, nil
	case "churn":
		return &churn{writes: sz.churnWrites, depth: sz.queueDepth, workdir: workdir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "study, churn, reads or follow")
		seed      = fs.Int64("seed", defaultSeed, "input seed; the golden compare applies to the default seed only")
		secs      = fs.Float64("seconds", 15, "buys the timed rounds: as many of the workload's nominal rounds as fit")
		trace     = fs.Int("trace", 0, "1 adds a traced round and the layer probes, and reports the per-layer metrics")
		workdir   = fs.String("workdir", ".bench_build", "directory for temporary journals and span files")
		spans     = fs.String("spans", "", "span file of a traced run (default <workdir>/spans-<workload>.jsonl)")
		stability = fs.Int("stability", 0, "run K complete sets and compare their medians against the bounds in -spec")
		spec      = fs.String("spec", "BENCHMARK.json", "benchmark definition read by -stability")
		writeGold = fs.String("write-golden", "", "regenerate the golden file at this path and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Two cores at most: one for the driver, one for the daemon's scheduler
	// goroutine. More would let the runtime's background work move between
	// cores from run to run.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	budget := time.Duration(*secs * float64(time.Second))

	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	switch {
	case *writeGold != "":
		return writeGolden(*writeGold, *workdir, fullSizes)
	case *stability > 0:
		return runStability(*stability, *spec, *seed, *secs, *workdir)
	}

	res, err := runOne(*name, *seed, budget, *trace == 1, *workdir, *spans, &g)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	line, err := res.jsonLine(*trace == 1)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed verification", res.workload, res.failed, res.attempted)
	}
	return nil
}

// runOne measures one workload at full size.
func runOne(name string, seed int64, budget time.Duration, traced bool, workdir, spanPath string, g *golden) (*result, error) {
	if seed != g.Seed {
		g = nil
	}
	w, err := newWorkload(name, fullSizes, workdir, g)
	if err != nil {
		return nil, err
	}
	if traced && spanPath == "" {
		spanPath = filepath.Join(workdir, "spans-"+name+".jsonl")
	}
	return measure(name, w, seed, budget, traced, spanPath)
}

// print writes the run as text: one line per metric with its unit, the
// sample count behind the percentiles and every round's wall time, so that
// a disturbed run can be told from a slow one.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d: %d ops attempted, %d failed\n", r.workload, r.seed, r.attempted, r.failed)
	fmt.Fprintf(w, "  set-ups (s):")
	for _, d := range r.setups {
		fmt.Fprintf(w, " %.3f", d.Seconds())
	}
	fmt.Fprintf(w, "\n  round walls (s):")
	for _, d := range r.walls {
		fmt.Fprintf(w, " %.3f", d.Seconds())
	}
	fmt.Fprintf(w, "\n  reference kernel: %.3f of nominal during the set-ups, %.3f during the rounds; times below are measured time / that", r.setupSpeed, r.speed)
	fmt.Fprintf(w, "\n  quiet set-up: %.3f s measured; quiet round: %.3f s measured, the fastest of %d replicates of each of %d slices; %d latency samples, tail = p%g; measured ladder (us):",
		r.quietSetup.Seconds(), r.quietWall.Seconds(), len(r.walls), r.slices, r.samples, r.tailQ*100)
	for i, q := range ladderQs {
		fmt.Fprintf(w, " p%g %.1f", q*100, micros(r.ladder[i]))
	}
	fmt.Fprintln(w)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-18s %14.4f %s\n", m.name, r.e2e[m.name], m.unit)
	}
	if r.layer == nil {
		return
	}
	fmt.Fprintf(w, "  (a traced run measures %d rounds; the end-to-end metrics that count are an untraced run's)\n", len(r.walls))
	fmt.Fprintf(w, "  per-layer (%d spans):\n", r.spans)
	names := make([]string, 0, len(r.layer))
	for n := range r.layer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, r.layer[n], unitOf(n))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonLine renders the result line the benchmark contract asks for: the
// end-to-end metrics of an untraced run, or every per-layer metric of a
// traced one. A layer metric reads 0 on a workload that never enters the
// layer it measures.
func (r *result) jsonLine(traced bool) (string, error) {
	ms := map[string]metricValue{}
	if traced {
		for _, m := range perLayer {
			ms[m.name] = metricValue{Value: r.layer[m.name], Unit: m.unit}
		}
	} else {
		for _, m := range endToEnd {
			ms[m.name] = metricValue{Value: r.e2e[m.name], Unit: m.unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	return string(b), err
}
