package sweep

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
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

// TestMemoReadsEachCellOnce: one cell read many times at once through one
// memo is simulated once, and every reader holds that run's result. A
// second scheduler over the same cell's jobs shares its job set and base.
func TestMemoReadsEachCellOnce(t *testing.T) {
	var m Memo
	k := Key{Base: Base{Model: "SDSC", Jobs: 200, Seed: 3, Load: 0.6}, Load: 0.8, Estimates: "actual", Scheduler: "easy", Policy: "FCFS"}
	res := make([]*core.Result, 8)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := m.Result(k)
			if err != nil {
				t.Error(err)
			}
			res[i] = r
		}(i)
	}
	wg.Wait()
	for i, r := range res {
		if r != res[0] {
			t.Errorf("reader %d saw a result of its own", i)
		}
	}
	k.Scheduler = "conservative"
	if _, err := m.Result(k); err != nil {
		t.Fatal(err)
	}
	if b, j, r := groupLen(&m.bases), groupLen(&m.jobs), groupLen(&m.results); b != 1 || j != 1 || r != 2 {
		t.Fatalf("memo holds %d bases, %d job sets and %d results, want 1, 1 and 2", b, j, r)
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
