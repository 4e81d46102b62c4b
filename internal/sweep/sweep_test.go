package sweep

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/runner"
	"repro/internal/workload"
)

func testWorkload(t *testing.T) Workload {
	t.Helper()
	m, err := workload.NewSDSC(0.8)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := m.Generate(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Workload{Name: "sdsc300", Jobs: jobs, Procs: m.Procs}
}

func TestRunFactorial(t *testing.T) {
	d := Design{
		Workloads:  []Workload{testWorkload(t)},
		Schedulers: []string{"easy", "conservative"},
		Policies:   []string{"FCFS", "SJF"},
		Estimates:  []string{"exact", "R=2"},
		Seed:       7,
	}
	recs, err := RunWith(context.Background(), d, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*2*2 {
		t.Fatalf("records = %d, want 8", len(recs))
	}
	for _, r := range recs {
		if r.Jobs != 300 {
			t.Errorf("cell %v lost jobs", r)
		}
		if r.Slowdown < 1 {
			t.Errorf("cell %v slowdown < 1", r)
		}
		if r.Utilization <= 0 || r.Utilization > 1 {
			t.Errorf("cell %v utilization out of range", r)
		}
		if r.Gini < 0 || r.Gini > 1 {
			t.Errorf("cell %v gini out of range", r)
		}
	}
}

func TestRunLoadsAxis(t *testing.T) {
	d := Design{
		Workloads:  []Workload{testWorkload(t)},
		Schedulers: []string{"easy"},
		Policies:   []string{"FCFS"},
		Loads:      []float64{0.5, 0.9},
		Seed:       7,
	}
	recs, err := RunWith(context.Background(), d, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].Load != 0.5 || recs[1].Load != 0.9 {
		t.Fatalf("loads = %v, %v", recs[0].Load, recs[1].Load)
	}
	if recs[1].Slowdown <= recs[0].Slowdown {
		t.Fatalf("higher load should raise slowdown: %.2f vs %.2f", recs[1].Slowdown, recs[0].Slowdown)
	}
}

func TestRunValidation(t *testing.T) {
	w := testWorkload(t)
	for _, c := range []struct {
		name string
		d    Design
	}{
		{"empty design", Design{}},
		{"empty workload", Design{Workloads: []Workload{{Name: "empty"}}, Schedulers: []string{"easy"}, Policies: []string{"FCFS"}}},
		{"workload named twice", Design{Workloads: []Workload{w, w}, Schedulers: []string{"easy"}, Policies: []string{"FCFS"}}},
		{"bad scheduler", Design{Workloads: []Workload{w}, Schedulers: []string{"nope"}, Policies: []string{"FCFS"}}},
		{"bad estimate model", Design{Workloads: []Workload{w}, Schedulers: []string{"easy"}, Policies: []string{"FCFS"}, Estimates: []string{"nope"}}},
		{"negative load", Design{Workloads: []Workload{w}, Schedulers: []string{"easy"}, Policies: []string{"FCFS"}, Loads: []float64{-0.5, 0.8}}},
		{"zero load", Design{Workloads: []Workload{w}, Schedulers: []string{"easy"}, Policies: []string{"FCFS"}, Loads: []float64{0}}},
		{"NaN load", Design{Workloads: []Workload{w}, Schedulers: []string{"easy"}, Policies: []string{"FCFS"}, Loads: []float64{math.NaN()}}},
		{"infinite load", Design{Workloads: []Workload{w}, Schedulers: []string{"easy"}, Policies: []string{"FCFS"}, Loads: []float64{math.Inf(1)}}},
	} {
		if recs, err := RunWith(context.Background(), c.d, Options{}); err == nil {
			t.Errorf("%s: ran %d cells, want an error", c.name, len(recs))
		}
	}
}

// groupLen reports how many keys a group has run or is running.
func groupLen[K comparable, V any](g *group[K, V]) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// TestMemoReadsEachCellOnce: cells that differ only in scheduler or
// policy, run at once through one memo, share one base and one job set,
// and RunCells hands each cell's result to fn once, at its key's index.
func TestMemoReadsEachCellOnce(t *testing.T) {
	var m Memo
	b := Base{Model: "SDSC", Jobs: 200, Seed: 3, Load: 0.6}
	var keys []Key
	for _, kind := range []string{"easy", "conservative", "none", "depth:2"} {
		for _, pol := range []string{"FCFS", "SJF"} {
			keys = append(keys, Key{Base: b, Load: 0.8, Estimates: "actual", Scheduler: kind, Policy: pol})
		}
	}
	var mu sync.Mutex
	seen := make([]int, len(keys))
	res, err := RunCells(context.Background(), &m, keys, runner.Options{Workers: 4}, func(i int, r *core.Result) (*core.Result, error) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if seen[i] != 1 || r.Config.Scheduler != keys[i].Scheduler || r.Config.Policy != keys[i].Policy {
			t.Errorf("cell %d (%s): fn saw it %d times, result is %s/%s", i, keys[i], seen[i], r.Config.Scheduler, r.Config.Policy)
		}
	}
	if b, j := groupLen(&m.bases), groupLen(&m.jobs); b != 1 || j != 1 {
		t.Fatalf("memo holds %d bases and %d job sets, want 1 and 1", b, j)
	}
}

func TestRunProgress(t *testing.T) {
	var sb strings.Builder
	d := Design{
		Workloads:  []Workload{testWorkload(t)},
		Schedulers: []string{"easy"},
		Policies:   []string{"FCFS"},
	}
	if _, err := RunWith(context.Background(), d, Options{Workers: 1, Progress: &sb}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "EASY(FCFS)") {
		t.Fatalf("progress missing: %q", sb.String())
	}
}

func TestWriteCSV(t *testing.T) {
	d := Design{
		Workloads:  []Workload{testWorkload(t)},
		Schedulers: []string{"easy"},
		Policies:   []string{"FCFS"},
	}
	recs, err := RunWith(context.Background(), d, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	headerCols := strings.Split(lines[0], ",")
	dataCols := strings.Split(lines[1], ",")
	if len(headerCols) != len(dataCols) {
		t.Fatalf("header %d cols vs data %d", len(headerCols), len(dataCols))
	}
	if headerCols[0] != "workload" || dataCols[0] != "sdsc300" {
		t.Fatalf("first column wrong: %q %q", headerCols[0], dataCols[0])
	}
	wantCats := len(job.Categories())
	if got := len(headerCols); got != 13+wantCats {
		t.Fatalf("columns = %d", got)
	}
}
