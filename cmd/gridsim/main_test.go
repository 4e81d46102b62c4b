package main

import (
	"testing"

	"repro/internal/grid"
)

func TestPickRoutings(t *testing.T) {
	all, err := pickRoutings("")
	if err != nil || len(all) != 3 {
		t.Fatalf("default routings = %v, %v", all, err)
	}
	one, err := pickRoutings("replicate-all")
	if err != nil || len(one) != 1 || one[0] != grid.ReplicateAll {
		t.Fatalf("replicate-all = %v, %v", one, err)
	}
	if _, err := pickRoutings("bogus"); err == nil {
		t.Fatal("unknown routing should error")
	}
}

// TestBuildJobs checks the workload gridsim builds from its flags.
func TestBuildJobs(t *testing.T) {
	jobs, err := grid.SDSCJobs(300, 1, 0.7, "actual", 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 300 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	for _, j := range jobs {
		if j.Width > 64 {
			t.Fatalf("job wider than a site: %v", j)
		}
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := grid.SDSCJobs(10, 1, 0.7, "bogus", 2, 64); err == nil {
		t.Fatal("bad estimate model should error")
	}
}
