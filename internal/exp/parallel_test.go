package exp

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/runner"
)

// TestRunExperimentsParallelMatchesSerial: running the full registry on 8
// workers must produce exactly the tables the serial path produces, in the
// same order.
func TestRunExperimentsParallelMatchesSerial(t *testing.T) {
	serialLab, err := NewLab(testParams())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunExperiments(context.Background(), serialLab, All(), runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	parallelLab, err := NewLab(testParams())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunExperiments(context.Background(), parallelLab, All(), runner.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}

	if len(serial) != len(parallel) {
		t.Fatalf("table count: serial %d vs parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("table %d (%s) differs between serial and parallel", i, serial[i].ID)
		}
	}
}

// TestLabSharesConcurrentSimulations: many goroutines requesting the same
// configuration must trigger exactly one simulation.
func TestLabSharesConcurrentSimulations(t *testing.T) {
	l, err := NewLab(testParams())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]uint64, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := l.Result("CTC", HighLoad, "exact", "easy", "FCFS")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r.Fingerprint
		}(i)
	}
	wg.Wait()
	if keys := l.SortedResultKeys(); len(keys) != 1 {
		t.Fatalf("result keys = %v, want exactly one", keys)
	}
	for i, fp := range results {
		if fp != results[0] {
			t.Errorf("goroutine %d saw fingerprint %016x, want %016x", i, fp, results[0])
		}
	}
}

// TestExperimentTableCache: a second run against the same cache directory
// must hit for every experiment and reproduce the tables exactly.
func TestExperimentTableCache(t *testing.T) {
	cache, err := runner.OpenCache(t.TempDir(), CacheSalt)
	if err != nil {
		t.Fatal(err)
	}
	exps := []Experiment{}
	for _, id := range []string{"Table1", "Figure1", "Table4"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}

	lab1, err := NewLab(testParams())
	if err != nil {
		t.Fatal(err)
	}
	cold := runner.NewJournal(nil)
	want, err := RunExperiments(context.Background(), lab1, exps, runner.Options{Workers: 2, Cache: cache, Journal: cold})
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Summary(); s.Misses != 3 {
		t.Fatalf("cold summary = %+v", s)
	}

	lab2, err := NewLab(testParams())
	if err != nil {
		t.Fatal(err)
	}
	warm := runner.NewJournal(nil)
	got, err := RunExperiments(context.Background(), lab2, exps, runner.Options{Workers: 2, Cache: cache, Journal: warm})
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Summary(); s.CacheHits != 3 || s.Misses != 0 {
		t.Fatalf("warm summary = %+v, want 3 hits", s)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("cached tables differ from computed tables")
	}
	if keys := lab2.SortedResultKeys(); len(keys) != 0 {
		t.Errorf("warm lab simulated %v despite full cache hits", keys)
	}

	// Different parameters must change every experiment's address.
	p := testParams()
	p.Seed++
	lab3, err := NewLab(p)
	if err != nil {
		t.Fatal(err)
	}
	j3 := runner.NewJournal(nil)
	if _, err := RunExperiments(context.Background(), lab3, exps[:1], runner.Options{Workers: 1, Cache: cache, Journal: j3}); err != nil {
		t.Fatal(err)
	}
	if s := j3.Summary(); s.CacheHits != 0 {
		t.Errorf("changed seed still hit the cache: %+v", s)
	}
}
