package exp

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
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
	results := make([]*core.Result, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := l.Result("CTC", l.P.HighLoad, "exact", "easy", "FCFS")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	// Every reader holds the one result the single simulation made.
	for i, r := range results {
		if r != results[0] {
			t.Errorf("goroutine %d saw a result of its own", i)
		}
	}
}
