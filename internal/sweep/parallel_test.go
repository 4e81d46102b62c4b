package sweep

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"
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

func TestCacheHitOnIdenticalSpec(t *testing.T) {
	d := testDesign(t)
	cache, err := runner.OpenCache(t.TempDir(), CacheSalt)
	if err != nil {
		t.Fatal(err)
	}

	cold := runner.NewJournal(nil)
	recs1, err := RunWith(context.Background(), d, Options{Workers: 4, Cache: cache, Journal: cold})
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Summary(); s.Misses != 16 || s.CacheHits != 0 {
		t.Fatalf("cold summary = %+v, want 16 misses", s)
	}

	warm := runner.NewJournal(nil)
	recs2, err := RunWith(context.Background(), d, Options{Workers: 4, Cache: cache, Journal: warm})
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Summary(); s.CacheHits != 16 || s.Misses != 0 {
		t.Fatalf("warm summary = %+v, want 16 hits", s)
	}
	if a, b := csvOf(t, recs1), csvOf(t, recs2); a != b {
		t.Fatal("cached records differ from computed records")
	}
}

func TestCacheMissOnAnyFieldChange(t *testing.T) {
	base := Design{
		Workloads:  []Workload{testWorkload(t)},
		Schedulers: []string{"easy"},
		Policies:   []string{"FCFS"},
		Seed:       7,
	}
	cache, err := runner.OpenCache(t.TempDir(), CacheSalt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWith(context.Background(), base, Options{Workers: 1, Cache: cache}); err != nil {
		t.Fatal(err)
	}

	variants := map[string]Design{}
	v := base
	v.Seed = 8
	variants["seed"] = v
	v = base
	v.Schedulers = []string{"conservative"}
	variants["scheduler"] = v
	v = base
	v.Policies = []string{"SJF"}
	variants["policy"] = v
	v = base
	v.Estimates = []string{"R=2"}
	variants["estimate"] = v
	v = base
	v.Loads = []float64{0.9}
	variants["load"] = v

	for field, d := range variants {
		j := runner.NewJournal(nil)
		if _, err := RunWith(context.Background(), d, Options{Workers: 1, Cache: cache, Journal: j}); err != nil {
			t.Fatalf("%s variant: %v", field, err)
		}
		if s := j.Summary(); s.CacheHits != 0 {
			t.Errorf("changing %s still hit the cache: %+v", field, s)
		}
	}

	// A changed job set (different generation seed) must also miss: the
	// key is content-addressed on the jobs themselves.
	j := runner.NewJournal(nil)
	d := base
	w := d.Workloads[0]
	w.Jobs = w.Jobs[:len(w.Jobs)-1]
	d.Workloads = []Workload{w}
	if _, err := RunWith(context.Background(), d, Options{Workers: 1, Cache: cache, Journal: j}); err != nil {
		t.Fatal(err)
	}
	if s := j.Summary(); s.CacheHits != 0 {
		t.Errorf("changing the job set still hit the cache: %+v", s)
	}
}

func TestCacheCorruptionToleratedBySweep(t *testing.T) {
	d := Design{
		Workloads:  []Workload{testWorkload(t)},
		Schedulers: []string{"easy"},
		Policies:   []string{"FCFS", "SJF"},
		Seed:       7,
	}
	dir := t.TempDir()
	cache, err := runner.OpenCache(dir, CacheSalt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunWith(context.Background(), d, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	// Truncate every cache entry; the rerun must treat them as misses and
	// recompute, not fail.
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cache files (err=%v)", err)
	}
	for _, f := range files {
		if err := os.Truncate(f, 3); err != nil {
			t.Fatal(err)
		}
	}

	j := runner.NewJournal(nil)
	got, err := RunWith(context.Background(), d, Options{Workers: 2, Cache: cache, Journal: j})
	if err != nil {
		t.Fatalf("corrupted cache failed the sweep: %v", err)
	}
	if s := j.Summary(); s.Misses != 2 || s.CacheHits != 0 {
		t.Fatalf("summary after corruption = %+v, want 2 misses", s)
	}
	if a, b := csvOf(t, want), csvOf(t, got); a != b {
		t.Fatal("recomputed records differ")
	}
}

// TestProgressRoutedThroughSink checks the per-cell lines and the engine's
// "[done/total]" lines share the sink and never shear — every line must be
// complete and well-formed, one of each per cell.
func TestProgressRoutedThroughSink(t *testing.T) {
	d := testDesign(t)
	var sb strings.Builder
	if _, err := RunWith(context.Background(), d, Options{Workers: 1, Progress: &sb}); err != nil {
		t.Fatal(err)
	}
	var cells, engine int
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		switch {
		case strings.Contains(line, "slowdown"):
			cells++
		case strings.HasPrefix(line, "[") && strings.Contains(line, "/16] done sweep|") && strings.Contains(line, "eta"):
			engine++
		default:
			t.Errorf("malformed progress line: %q", line)
		}
	}
	if cells != 16 || engine != 16 {
		t.Fatalf("progress lines: %d per-cell and %d engine, want 16 of each", cells, engine)
	}
}
