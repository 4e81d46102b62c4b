package sched

import (
	"testing"

	"repro/internal/job"
)

// TestProfileSteadyStateAllocs pins the profile's allocation behavior: once
// the backing array has grown to the working size, reserve/release pairs —
// including the boundary splits and re-merges they trigger — must not
// allocate. Regressing this (e.g. by rebuilding slices in adjust or
// re-slicing away spare capacity) multiplies GC pressure across every
// scheduler, so the test fails on any nonzero figure.
func TestProfileSteadyStateAllocs(t *testing.T) {
	p := NewProfile(430)
	for i := 0; i < 64; i++ {
		p.Reserve(int64(i)*100, 50, 3)
	}
	for i := 0; i < 64; i++ {
		p.Release(int64(i)*100, 50, 3)
	}
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		from := 200000 + int64((i*97)%1000)*10
		p.Reserve(from, 1000, 8)
		p.Release(from, 1000, 8)
		i++
	}); avg != 0 {
		t.Fatalf("steady-state Reserve/Release allocates %.1f times per pair, want 0", avg)
	}
}

// TestProfileTrimAllocs drives the rolling-window pattern every scheduler
// produces — reserve ahead, trim behind — and requires it to settle at zero
// allocations. Trim must copy survivors down into the head of the backing
// array; the old re-slice (points = points[i:]) abandoned the prefix, so
// capacity shrank forever and every later insertion eventually reallocated.
func TestProfileTrimAllocs(t *testing.T) {
	p := NewProfile(64)
	var now int64
	step := func() {
		p.Reserve(now+1000, 50, 1)
		p.Trim(now)
		now += 10
	}
	for i := 0; i < 200; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("rolling reserve+trim allocates %.1f times per step, want 0", avg)
	}
}

// TestProfileEarlierStartAllocsAndPurity checks the two properties the
// compression loops rely on: EarlierStart never mutates the profile and,
// once the index is built, never allocates.
func TestProfileEarlierStartAllocsAndPurity(t *testing.T) {
	p := NewProfile(430)
	// Grow past indexMinPoints so the indexed query paths run.
	for i, tt := 0, int64(0); tt < 20000; i, tt = i+1, tt+50 {
		p.Reserve(tt, 50, 399+i%2)
	}
	if p.NumPoints() < indexMinPoints {
		t.Fatalf("setup too small: %d points, need >= %d", p.NumPoints(), indexMinPoints)
	}
	p.Reserve(30000, 500, 64)
	p.FindStart(0, 3600, 64) // builds the index

	before := append([]point(nil), p.points...)
	if avg := testing.AllocsPerRun(100, func() {
		p.EarlierStart(0, 30000, 500, 64)
	}); avg != 0 {
		t.Fatalf("EarlierStart allocates %.1f times per call, want 0", avg)
	}
	if len(before) != len(p.points) {
		t.Fatalf("EarlierStart changed the point count: %d -> %d", len(before), len(p.points))
	}
	for k := range before {
		if before[k] != p.points[k] {
			t.Fatalf("EarlierStart mutated point %d: %+v -> %+v", k, before[k], p.points[k])
		}
	}
}

// TestLaunchNoopAllocs pins the no-op pass fast path (DESIGN.md §15): with
// a deep standing queue behind a blocked head and no events since the last
// completed pass, Launch must return in O(1) with zero allocations — for
// every scheduler kind, at the same instant and (under time-invariant
// policies) at later ones. This is the property that decouples the write
// path's per-submit cost from queue depth; regressing it re-introduces the
// O(depth) scan PR 10 removed (PERFORMANCE.md §6).
func TestLaunchNoopAllocs(t *testing.T) {
	for name, mk := range incrMakers(16, FCFS{}) {
		s := mk()
		// One wide head that can never start plus a deep tail of wide jobs.
		wide := &job.Job{ID: 1, Arrival: 0, Runtime: 5000, Estimate: 6000, Width: 16}
		s.Arrive(0, wide)
		s.Launch(0) // starts the head; machine now full
		for id := 2; id <= 514; id++ {
			s.Arrive(1, &job.Job{ID: id, Arrival: 1, Runtime: 1000, Estimate: 1200, Width: 12})
		}
		s.Launch(1) // the full pass that establishes the memo
		now := int64(2)
		if avg := testing.AllocsPerRun(200, func() {
			if got := s.Launch(now); got != nil {
				t.Fatalf("%s: no-op Launch at t=%d started %d jobs", name, now, len(got))
			}
			now++
		}); avg != 0 {
			t.Fatalf("%s: no-op Launch allocates %.1f times per pass, want 0", name, avg)
		}
	}
}
