package exp

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sweep"
	"repro/internal/trace"
)

func testParams() Params {
	p := DefaultParams()
	p.Jobs = 400
	return p
}

// labRun is one RunExperiments call: the Lab, the tables and a lookup of
// every cell the experiments declare.
type labRun struct {
	lab    *Lab
	tables []*Table
	cell   func(sweep.Key) *core.Result
}

// runLab runs exps at p on the given number of workers, with progress into
// progress when it is not nil. The lookup comes from one more experiment
// that declares the union of exps' cells, so it adds no cell to the run.
func runLab(t testing.TB, p Params, exps []Experiment, workers int, progress *bytes.Buffer) *labRun {
	t.Helper()
	l, err := NewLab(p)
	if err != nil {
		t.Fatal(err)
	}
	r := &labRun{lab: l}
	capture := Experiment{
		ID: "capture",
		Cells: func(p Params) []sweep.Key {
			var ks []sweep.Key
			for _, e := range exps {
				if e.Cells != nil {
					ks = append(ks, e.Cells(p)...)
				}
			}
			return ks
		},
		Render: func(_ *Lab, res Results) ([]*Table, error) {
			r.cell = res.Get
			return nil, nil
		},
	}
	opt := runner.Options{Workers: workers}
	if progress != nil {
		opt.Progress = runner.NewPrinter(progress)
	}
	if r.tables, err = RunExperiments(context.Background(), l, append(exps[:len(exps):len(exps)], capture), opt); err != nil {
		t.Fatal(err)
	}
	return r
}

// ctcKey names a cell of the CTC trace at high load, where most
// experiments read.
func ctcKey(p Params, est, kind, pol string) sweep.Key {
	return p.key("CTC", p.HighLoad, est, kind, pol)
}

// of returns the tables experiment id rendered.
func (r *labRun) of(id string) []*Table {
	var ts []*Table
	for _, t := range r.tables {
		if t.ID == id {
			ts = append(ts, t)
		}
	}
	return ts
}

func TestNewLabValidation(t *testing.T) {
	bad := []Params{
		{Jobs: 0, NormalLoad: 0.5, HighLoad: 0.9},
		{Jobs: 100, NormalLoad: 0, HighLoad: 0.9},
		{Jobs: 100, NormalLoad: 0.9, HighLoad: 0.5},
		{Jobs: 100, NormalLoad: math.NaN(), HighLoad: 0.9},
		{Jobs: 100, NormalLoad: 0.6, HighLoad: math.NaN()},
		{Jobs: 100, NormalLoad: 0.6, HighLoad: math.Inf(1)},
		{Jobs: 100, NormalLoad: math.Inf(1), HighLoad: math.Inf(1)},
		{Jobs: 100, NormalLoad: math.Inf(-1), HighLoad: 0.9},
	}
	for i, p := range bad {
		if _, err := NewLab(p); err == nil {
			t.Errorf("case %d (%+v): want error", i, p)
		}
	}
	if _, err := NewLab(DefaultParams()); err != nil {
		t.Fatal(err)
	}
}

func TestLabProcs(t *testing.T) {
	l, err := NewLab(testParams())
	if err != nil {
		t.Fatal(err)
	}
	ctc, err := l.Procs("CTC")
	if err != nil || ctc != 430 {
		t.Fatalf("CTC procs = %d, %v", ctc, err)
	}
	sdsc, err := l.Procs("SDSC")
	if err != nil || sdsc != 128 {
		t.Fatalf("SDSC procs = %d, %v", sdsc, err)
	}
	if _, err := l.Procs("nope"); err == nil {
		t.Fatal("unknown trace should error")
	}
}

func TestLabWorkloadCachingAndLoads(t *testing.T) {
	l, err := NewLab(testParams())
	if err != nil {
		t.Fatal(err)
	}
	a, err := l.Workload("CTC", l.P.HighLoad, "exact")
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Workload("CTC", l.P.HighLoad, "exact")
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("workload not cached")
	}
	normal, err := l.Workload("CTC", l.P.NormalLoad, "exact")
	if err != nil {
		t.Fatal(err)
	}
	// High-load trace must be denser than the normal one.
	hi := trace.OfferedLoad(a, 430)
	lo := trace.OfferedLoad(normal, 430)
	if hi <= lo {
		t.Fatalf("high load %.3f not above normal %.3f", hi, lo)
	}
	// Same jobs, different estimates, same runtimes.
	actual, err := l.Workload("CTC", l.P.HighLoad, "actual")
	if err != nil {
		t.Fatal(err)
	}
	if len(actual) != len(a) {
		t.Fatal("estimate variant changed job count")
	}
	for i := range a {
		if actual[i].Runtime != a[i].Runtime || actual[i].Arrival != a[i].Arrival {
			t.Fatal("estimate variant changed runtimes/arrivals")
		}
	}
}

// TestLabCellMatchesSweep: a cell an experiment reads is the cell
// sweep.RunWith runs over the Lab's base workload generated afresh, record
// field by record field.
func TestLabCellMatchesSweep(t *testing.T) {
	p := testParams()
	k := p.key("SDSC", p.HighLoad, "exact", "easy", "FCFS")
	one := Experiment{ID: "one", Cells: func(Params) []sweep.Key { return []sweep.Key{k} },
		Render: func(*Lab, Results) ([]*Table, error) { return nil, nil }}
	r := runLab(t, p, []Experiment{one}, 1, nil)

	w, err := p.base("SDSC").Generate()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sweep.RunWith(context.Background(), sweep.Design{
		Workloads:  []sweep.Workload{w},
		Schedulers: []string{"easy"},
		Policies:   []string{"FCFS"},
		Estimates:  []string{"exact"},
		Loads:      []float64{p.HighLoad},
		Seed:       p.Seed,
	}, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Record(r.cell(k)); !reflect.DeepEqual(got, recs[0]) {
		t.Fatalf("Lab cell %+v\nsweep cell %+v", got, recs[0])
	}
}

// TestRunExperimentsRefusesBadKeys: an experiment that declares a cell no
// scheduler, policy, estimate model or load can run fails the run before
// any cell runs, its well-formed neighbour's included. A cell over an
// unknown trace fails when its workload is drawn.
func TestRunExperimentsRefusesBadKeys(t *testing.T) {
	p := testParams()
	nop := func(*Lab, Results) ([]*Table, error) { return nil, nil }
	good := Experiment{ID: "good", Cells: ctcHigh(exact, []string{"easy"}, fcfs), Render: nop}
	for _, bad := range []sweep.Key{
		ctcKey(p, "exact", "bogus", "FCFS"),
		ctcKey(p, "exact", "easy", "bogus"),
		ctcKey(p, "bogus", "easy", "FCFS"),
		p.key("CTC", math.Inf(1), "exact", "easy", "FCFS"),
	} {
		l, err := NewLab(p)
		if err != nil {
			t.Fatal(err)
		}
		var progress bytes.Buffer
		exps := []Experiment{good, {ID: "bad", Cells: func(Params) []sweep.Key { return []sweep.Key{bad} }, Render: nop}}
		if _, err := RunExperiments(context.Background(), l, exps, runner.Options{Workers: 2, Progress: runner.NewPrinter(&progress)}); err == nil {
			t.Errorf("%s: want an error", bad)
		}
		if progress.Len() != 0 {
			t.Errorf("%s: cells ran before the refusal:\n%s", bad, progress.String())
		}
	}
	l, err := NewLab(p)
	if err != nil {
		t.Fatal(err)
	}
	exps := []Experiment{{ID: "bad", Cells: func(p Params) []sweep.Key { return []sweep.Key{p.key("bogus", p.HighLoad, "exact", "easy", "FCFS")} }, Render: nop}}
	if _, err := RunExperiments(context.Background(), l, exps, runner.Options{Workers: 1}); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown trace: err %v, want it named", err)
	}
}
