package sweep

import (
	"context"
	"strings"
	"testing"
)

// testDesign is a 2×2×2×2 = 16-cell factorial over the shared test
// workload, exercising every axis.
func testDesign(t *testing.T) Design {
	t.Helper()
	return Design{
		Workloads:  []Workload{testWorkload(t)},
		Schedulers: []string{"easy", "conservative"},
		Policies:   []string{"FCFS", "SJF"},
		Estimates:  []string{"exact", "R=2"},
		Loads:      []float64{0.7, 0.9},
		Seed:       7,
	}
}

func csvOf(t *testing.T, recs []Record) string {
	t.Helper()
	var sb strings.Builder
	if err := WriteCSV(&sb, recs); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestParallelMatchesSerial is the determinism guarantee: a parallel sweep
// must produce byte-identical CSV to the serial path, for the same design
// and seed.
func TestParallelMatchesSerial(t *testing.T) {
	d := testDesign(t)
	serial, err := RunWith(context.Background(), d, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunWith(context.Background(), d, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	sCSV, pCSV := csvOf(t, serial), csvOf(t, parallel)
	if sCSV != pCSV {
		t.Fatalf("parallel CSV differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", sCSV, pCSV)
	}
	if lines := strings.Count(sCSV, "\n"); lines != 16+1 {
		t.Fatalf("CSV lines = %d, want 17 (header + 16 cells)", lines)
	}
}

// TestProgressRoutedThroughSink checks the per-cell lines, the engine's
// "[done/total]" lines and its summary share the sink and never shear —
// every line must be complete and well-formed, one of each per cell and
// one summary.
func TestProgressRoutedThroughSink(t *testing.T) {
	d := testDesign(t)
	var sb strings.Builder
	if _, err := RunWith(context.Background(), d, Options{Workers: 1, Progress: &sb}); err != nil {
		t.Fatal(err)
	}
	var cells, engine, summary int
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		switch {
		case strings.Contains(line, "slowdown"):
			cells++
		case strings.HasPrefix(line, "[") && strings.Contains(line, "/16] done sweep|") && strings.Contains(line, "eta"):
			engine++
		case strings.HasPrefix(line, "16 cells: wall "):
			summary++
		default:
			t.Errorf("malformed progress line: %q", line)
		}
	}
	if cells != 16 || engine != 16 || summary != 1 {
		t.Fatalf("progress lines: %d per-cell, %d engine and %d summary, want 16, 16 and 1", cells, engine, summary)
	}
}
