package sweep

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/job"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenJobs is a small handcrafted workload exercising backfilling: wide
// blockers, narrow fillers, and one job whose estimate overruns its runtime
// so compression fires under the R=2 estimate model too.
func goldenJobs() []*job.Job {
	mk := func(id int, arr, rt int64, w int) *job.Job {
		return &job.Job{ID: id, Arrival: arr, Runtime: rt, Estimate: rt, Width: w}
	}
	return []*job.Job{
		mk(1, 0, 600, 6),
		mk(2, 10, 600, 6),
		mk(3, 20, 300, 4),
		mk(4, 30, 120, 2),
		{ID: 5, Arrival: 40, Runtime: 200, Estimate: 500, Width: 3},
		mk(6, 300, 900, 8),
		mk(7, 320, 60, 1),
		mk(8, 340, 60, 1),
		mk(9, 900, 1200, 5),
		mk(10, 950, 180, 2),
		mk(11, 1000, 3600, 1),
		mk(12, 1100, 240, 7),
	}
}

// TestGoldenSweepCSV runs a fixed factorial design end-to-end — workload
// preparation, estimate models, every cell simulated under the auditor —
// and compares the emitted CSV byte-for-byte against the checked-in golden
// file. Any change to scheduling semantics, metrics, or CSV formatting
// shows up as a diff here; regenerate deliberately with
//
//	go test ./internal/sweep -run TestGoldenSweepCSV -update
func TestGoldenSweepCSV(t *testing.T) {
	d := Design{
		Workloads:  []Workload{{Name: "golden", Jobs: goldenJobs(), Procs: 8}},
		Schedulers: []string{"conservative", "easy", "none", "slack:1"},
		Policies:   []string{"FCFS", "SJF"},
		Estimates:  []string{"exact", "R=2"},
		Seed:       7,
	}
	recs, err := RunWith(context.Background(), d, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "golden_sweep.csv")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("sweep CSV deviates from %s — if the change is intentional, regenerate with -update\ngot:\n%s\nwant:\n%s",
			golden, buf.String(), want)
	}

	// The parallel path must emit the identical bytes.
	recs2, err := RunWith(context.Background(), d, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := WriteCSV(&buf2, recs2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2.Bytes(), want) {
		t.Fatalf("parallel sweep CSV deviates from the serial golden output")
	}
}
