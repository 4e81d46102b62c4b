package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// toySizes runs every workload's real code path in well under a second.
// follow's 2 200 jobs make 69 pulls a round: three rounds of them leave ten
// beyond p95, which measure insists on.
var toySizes = sizes{studyJobs: 150, churnWrites: 320, readsReads: 1000, queueDepth: 48, followJobs: 2200}

// toyBudget buys five rounds of study, whose 42 samples a round need them
// to leave ten beyond p95, and more of the others.
const toyBudget = 10 * time.Second

func toy(t *testing.T, name string) workload {
	t.Helper()
	w, err := newWorkload(name, toySizes, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.cleanup)
	return w
}

// warmRound prepares w and runs its warm-up round with verification.
func warmRound(t *testing.T, w workload, seed int64) *roundCtx {
	t.Helper()
	if err := w.prepare(seed); err != nil {
		t.Fatal(err)
	}
	rc := &roundCtx{warm: true, hist: &latHist{}}
	t.Cleanup(rc.done)
	if err := w.round(rc); err != nil {
		t.Fatal(err)
	}
	failed, err := w.verify(rc)
	if err != nil {
		t.Fatal(err)
	}
	if rc.ops == 0 || rc.failed+failed != 0 {
		t.Fatalf("warm-up round: %d ops, %d failed on the spot, %d failed verification", rc.ops, rc.failed, failed)
	}
	return rc
}

// tracedToy runs every workload once through the whole harness, traced,
// for the tests that look at what a run emits.
var tracedToy = sync.OnceValues(func() (map[string]*result, error) {
	dir, err := os.MkdirTemp("", "benchmark-test-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	out := map[string]*result{}
	for _, name := range workloadNames {
		w, err := newWorkload(name, toySizes, dir, nil)
		if err != nil {
			return nil, err
		}
		if out[name], err = measure(name, w, 7, toyBudget, true, filepath.Join(dir, "spans.jsonl")); err != nil {
			return nil, err
		}
	}
	return out, nil
})

func TestWorkloadsPassVerification(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) { warmRound(t, toy(t, name), 7) })
	}
}

// TestMeasureEmitsTheSpecifiedMetrics runs each workload through the whole
// harness, traced, and checks that the metrics it emits are the ones
// BENCHMARK.json lists, both ways round.
func TestMeasureEmitsTheSpecifiedMetrics(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var e2e, layer, names []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
		if unitOf(m.Name) != m.Unit {
			t.Errorf("%s: BENCHMARK.json says unit %q, the program %q", m.Name, m.Unit, unitOf(m.Name))
		}
	}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, n := range append(append([]string{}, e2e...), layer...) {
		if !valid.MatchString(n) {
			t.Errorf("metric name %q is not made of letters, digits, _ . -", n)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	sort.Strings(e2e)
	sort.Strings(layer)

	seen := map[string]bool{}
	runs, err := tracedToy()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		res := runs[name]
		if res.failed != 0 {
			t.Errorf("%s: %d of %d ops failed", name, res.failed, res.attempted)
		}
		if got := keys(res.e2e); !reflect.DeepEqual(got, e2e) {
			t.Errorf("%s emits end-to-end metrics %v, BENCHMARK.json lists %v", name, got, e2e)
		}
		for m, v := range res.e2e {
			if v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, m, v)
			}
		}
		for m := range res.layer {
			seen[m] = true
		}
		line, err := res.jsonLine(true)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Metrics map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatal(err)
		}
		if got := keys(out.Metrics); !reflect.DeepEqual(got, layer) {
			t.Errorf("%s: traced result line carries %v, BENCHMARK.json lists %v", name, got, layer)
		}
	}
	if got := keys(seen); !reflect.DeepEqual(got, layer) {
		t.Errorf("probes measured %v, BENCHMARK.json lists %v", got, layer)
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestLayerProbesStayInTheirWorkload pins the layer discrimination the
// probes are for: wal time is measured where a journal exists, the tailer
// on follow only, and the scheduler's share is large on study alone.
func TestLayerProbesStayInTheirWorkload(t *testing.T) {
	runs, err := tracedToy()
	if err != nil {
		t.Fatal(err)
	}
	layers := map[string]map[string]float64{}
	for name, res := range runs {
		layers[name] = res.layer
	}
	for name, l := range layers {
		for m, v := range l {
			wal := len(m) > 4 && m[:4] == "wal."
			if wal && (name == "study" || name == "reads") {
				t.Errorf("%s reports %s = %v; it has no journal", name, m, v)
			}
			if m == "wal.tail_us_per_rec" && name != "follow" {
				t.Errorf("%s reports the tailer probe", name)
			}
		}
	}
	if s := layers["study"]["sched.busy_share"]; s <= 0 || s >= 1 {
		t.Errorf("study sched.busy_share = %v", s)
	}
}

func TestSameSeedSameRun(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, b, c := toy(t, name), toy(t, name), toy(t, name)
			for _, p := range []struct {
				w    workload
				seed int64
			}{{a, 7}, {b, 7}, {c, 8}} {
				if err := p.w.prepare(p.seed); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(inputs(a), inputs(b)) {
				t.Error("the same seed gave different inputs")
			}
			if reflect.DeepEqual(inputs(a), inputs(c)) {
				t.Error("different seeds gave the same inputs")
			}
		})
	}

	// A study round is single-threaded and deterministic: its fingerprints
	// repeat exactly and its allocation count to within the few objects the
	// runtime allocates on its own behalf.
	s := toy(t, "study").(*study)
	warmRound(t, s, 7)
	var mallocs []uint64
	var prints [][]uint64
	for i := 0; i < 2; i++ {
		rc, _, err := runRound(s, nil, nil, &latHist{})
		if err != nil || rc.failed != 0 {
			t.Fatalf("round: %v, %d failed", err, rc.failed)
		}
		var p []uint64
		for _, r := range rc.keep.(studyKeep).results {
			p = append(p, r.Fingerprint)
		}
		rc.done()
		mallocs, prints = append(mallocs, rc.mallocs), append(prints, p)
	}
	if d := int64(mallocs[0]) - int64(mallocs[1]); d*d > int64(mallocs[0]/1000)*int64(mallocs[0]/1000) {
		t.Errorf("allocations differ between two rounds of one seed: %d, %d", mallocs[0], mallocs[1])
	}
	if !reflect.DeepEqual(prints[0], prints[1]) || !reflect.DeepEqual(prints[0], s.prints) {
		t.Error("fingerprints differ between rounds of one seed")
	}
}

// inputs is what prepare generated, in a form DeepEqual can compare.
func inputs(w workload) any {
	switch w := w.(type) {
	case *study:
		var jobs []any
		for _, c := range w.cells {
			for _, j := range c.jobs {
				jobs = append(jobs, *j)
			}
		}
		return jobs
	case *churn:
		return []any{w.fill, w.subs, w.picks}
	case *reads:
		return []any{w.running, w.fill, w.subs, w.picks}
	case *follow:
		st, err := os.ReadFile(mustGlob(filepath.Join(w.dir, "wal-*.log")))
		if err != nil {
			panic(err)
		}
		return []any{st, w.leaderHash}
	}
	return nil
}

func mustGlob(pattern string) string {
	m, err := filepath.Glob(pattern)
	if err != nil || len(m) != 1 {
		panic("want one journal segment at " + pattern)
	}
	return m[0]
}

// TestTailKeepsTenSamplesBeyond: at full size and the round count that
// BENCHMARK.json's run_seconds buys, every workload's tail percentile has at
// least ten measured samples beyond it; with fewer the run fails instead of
// reporting another percentile under the same name.
func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, beyond int
		q         float64
	}{{294, 14, 0.95}, {210, 10, 0.95}, {126, 6, 0.95}, {1000, 10, 0.99}, {999, 9, 0.99}} {
		if got := samplesBeyond(c.n, c.q); got != c.beyond {
			t.Errorf("%d samples, p%g: %d beyond, want %d", c.n, c.q*100, got, c.beyond)
		}
	}
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	budget := time.Duration(spec.RunSeconds) * time.Second
	perRound := map[string]int{
		"study":  42,
		"churn":  fullSizes.churnWrites,
		"reads":  fullSizes.readsReads,
		"follow": (2*fullSizes.followJobs + followBatch - 1) / followBatch,
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name, fullSizes, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		rounds := roundsFor(budget, w.nominalRound())
		if beyond := samplesBeyond(perRound[name]*rounds, w.tailQ()); beyond < 10 {
			t.Errorf("%s: %d rounds of %d samples leave %d beyond p%g", name, rounds, perRound[name], beyond, w.tailQ()*100)
		}
	}

	// Three rounds of study's 42 cells leave six beyond p95.
	if _, err := measure("study", toy(t, "study"), 7, 0, false, ""); err == nil {
		t.Error("a run with six samples beyond its tail percentile was accepted")
	}
}

// TestHistogramQuantiles checks the histogram against exact quantiles: a
// bucket is 1.6 % wide, so no quantile may be further off than that.
func TestHistogramQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h latHist
	var exact []time.Duration
	for i := 0; i < 50000; i++ {
		d := time.Duration(math.Exp(rng.Float64()*18)) + 1 // 1 ns to 66 ms, log-uniform
		h.add(d)
		exact = append(exact, d)
	}
	sort.Slice(exact, func(i, k int) bool { return exact[i] < exact[k] })
	for _, q := range []float64{0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		want := exact[int(math.Ceil(q*float64(len(exact))))-1]
		got := h.quantile(q)
		if diff := math.Abs(float64(got-want)) / float64(want); diff > 0.016 && math.Abs(float64(got-want)) > 1 {
			t.Errorf("q=%g: histogram %v, exact %v (%.2f%% off)", q, got, want, diff*100)
		}
	}
	if h.n != len(exact) {
		t.Errorf("histogram holds %d of %d samples", h.n, len(exact))
	}
}

// TestTimedSchedulerKeepsEverySchedule is the condition the sched probe
// stands on: with the timing wrappers around the scheduler and around the
// auditor, all 42 cells place every job where core.Run places it.
func TestTimedSchedulerKeepsEverySchedule(t *testing.T) {
	s := toy(t, "study").(*study)
	if err := s.prepare(7); err != nil {
		t.Fatal(err)
	}
	if len(s.cells) != 42 {
		t.Fatalf("grid has %d cells, want 42", len(s.cells))
	}
	tr := newTracer(1 << 10)
	for _, c := range s.cells {
		want, err := core.Run(c.config(true), c.jobs)
		if err != nil {
			t.Fatal(err)
		}
		var acc schedAcc
		got, err := tracedCell(tr, 0, c, &acc)
		if err != nil {
			t.Fatal(err)
		}
		if !core.SameSchedule(want, got) || !reflect.DeepEqual(want.Report, got.Report) {
			t.Errorf("%s: the timed run's schedule or report differs from core.Run's", c.key())
		}
		if acc.launch.n == 0 || acc.arrive.n != int64(len(c.jobs)) {
			t.Errorf("%s: wrapper saw %d launches and %d arrivals for %d jobs", c.key(), acc.launch.n, acc.arrive.n, len(c.jobs))
		}
	}
}

// TestWriteGolden regenerates a golden at toy size and reads it back.
func TestWriteGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := writeGolden(path, t.TempDir(), toySizes); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	if g.Seed != defaultSeed || len(g.Study) != 42 || g.Follow.Records != 2*toySizes.followJobs || g.Follow.StateHash == "" {
		t.Errorf("golden: seed %d, %d study cells, follow %+v", g.Seed, len(g.Study), g.Follow)
	}
	// A run on the golden's inputs passes against it.
	s := &study{jobsPerTrace: toySizes.studyJobs, golden: g.Study}
	warmRound(t, s, defaultSeed)
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer(8)
	tr.spans = append(tr.spans,
		span{id: 1, name: "round", layer: "driver", start: 0, end: 100},
		span{id: 2, parent: 1, name: "sim.Run", layer: "sim", start: 10, end: 90},
		span{id: 3, parent: 2, name: "sched.Launch", layer: "sched", start: 20, end: 80, n: 5, busy: 30},
	)
	got := tr.selfByLayer()
	want := map[string]time.Duration{"driver": 20, "sim": 50, "sched": 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const last = `{"id":3,"parent":2,"name":"sched.Launch","layer":"sched","start_ns":20,"end_ns":80,"n":5,"busy_ns":30}` + "\n"
	if len(b) < len(last) || string(b[len(b)-len(last):]) != last {
		t.Errorf("span file ends %q, want %q", b, last)
	}
}
