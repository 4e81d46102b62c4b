package sweep

import (
	"context"
	"strings"
	"testing"

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
	if _, err := RunWith(context.Background(), Design{}, Options{}); err == nil {
		t.Error("empty design should error")
	}
	bad := Design{
		Workloads:  []Workload{{Name: "empty"}},
		Schedulers: []string{"easy"},
		Policies:   []string{"FCFS"},
	}
	if _, err := RunWith(context.Background(), bad, Options{}); err == nil {
		t.Error("empty workload should error")
	}
	w := testWorkload(t)
	badSched := Design{
		Workloads: []Workload{w}, Schedulers: []string{"nope"}, Policies: []string{"FCFS"},
	}
	if _, err := RunWith(context.Background(), badSched, Options{}); err == nil {
		t.Error("bad scheduler should error")
	}
	badEst := Design{
		Workloads: []Workload{w}, Schedulers: []string{"easy"}, Policies: []string{"FCFS"},
		Estimates: []string{"nope"},
	}
	if _, err := RunWith(context.Background(), badEst, Options{}); err == nil {
		t.Error("bad estimate model should error")
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
