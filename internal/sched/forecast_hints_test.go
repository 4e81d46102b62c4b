package sched

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/job"
	"repro/internal/stats"
)

// referenceForecast is the dry-run as it was before start hints, kept as the
// oracle: every job is searched for from now, into a map, and reservations
// and the clamp are applied afterwards.
func referenceForecast(procs int, now int64, running []RunningSlot, queued []*job.Job, pol Policy, resv map[int]int64) map[int]int64 {
	p := NewProfile(procs)
	for _, r := range running {
		if r.EstEnd > now && r.Width > 0 {
			p.Reserve(now, r.EstEnd-now, r.Width)
		}
	}
	out := make(map[int]int64, len(queued))
	for _, j := range SortedByPolicy(queued, pol, now) {
		st := p.FindStart(now, j.Estimate, j.Width)
		p.Reserve(st, j.Estimate, j.Width)
		out[j.ID] = st
	}
	for id, t := range resv {
		if _, ok := out[id]; ok {
			out[id] = t
		}
	}
	for id, t := range out {
		if t < now {
			out[id] = now
		}
	}
	return out
}

// FuzzForecastHints holds the hinted dry-run to the hint-free reference on a
// random machine, running set, queue and reservation capture under each of
// FCFS, SJF and XF: the same start for every job from ForecastFromState,
// from ForecastFromStateSeeded's sink, and from a seed built over a prefix
// of the queue and extended one job at a time. mode's bits force the
// degenerate queues a dominance bound could get wrong at the boundary: all
// widths equal, all estimates equal, every width the whole machine, every
// estimate one second.
func FuzzForecastHints(f *testing.F) {
	f.Add(int64(1), uint16(429), uint8(200), uint8(0), uint8(0))  // the benchmark's shape, FCFS
	f.Add(int64(2), uint16(63), uint8(120), uint8(1), uint8(0))   // SJF: hints grow with the queue
	f.Add(int64(3), uint16(63), uint8(120), uint8(2), uint8(0))   // XF at a late now
	f.Add(int64(4), uint16(15), uint8(90), uint8(0), uint8(1))    // equal widths
	f.Add(int64(5), uint16(15), uint8(90), uint8(1), uint8(2))    // equal estimates
	f.Add(int64(6), uint16(15), uint8(60), uint8(2), uint8(3))    // identical jobs
	f.Add(int64(7), uint16(7), uint8(40), uint8(0), uint8(4))     // width = procs
	f.Add(int64(8), uint16(31), uint8(80), uint8(1), uint8(8))    // estimate 1
	f.Add(int64(9), uint16(0), uint8(30), uint8(2), uint8(12))    // one processor, estimate 1
	f.Add(int64(10), uint16(99), uint8(0), uint8(0), uint8(0))    // an empty queue
	f.Add(int64(11), uint16(255), uint8(255), uint8(2), uint8(0)) // deep enough to index the profile
	f.Add(int64(17), uint16(119), uint8(60), uint8(2), uint8(0))  // a dominated hint outlives the prune window
	f.Fuzz(func(t *testing.T, seed int64, procsIn uint16, depth, polIn, mode uint8) {
		r := stats.NewRNG(seed)
		procs := int(procsIn)%1024 + 1
		pol := []Policy{FCFS{}, SJF{}, XF{}}[int(polIn)%3]
		now := int64(r.IntRange(0, 5000))

		var running []RunningSlot
		for free := procs; free > 0 && r.Intn(8) > 0; {
			w := r.IntRange(1, free)
			free -= w
			// Some runners are already past their estimate: they hold nothing.
			running = append(running, RunningSlot{Width: w, EstEnd: now + int64(r.IntRange(-50, 3000))})
		}
		eqW, eqD := r.IntRange(1, procs), int64(r.IntRange(1, 2000))
		var queued []*job.Job
		resv := map[int]int64{}
		for i := 0; i < int(depth); i++ {
			j := &job.Job{ID: i + 1, Arrival: int64(r.IntRange(0, int(now))), Width: r.IntRange(1, procs), Estimate: int64(r.IntRange(1, 2000))}
			if r.Intn(3) == 0 {
				j.Width = r.IntRange(1, 1+procs/8) // narrow jobs backfill
			}
			if mode&1 != 0 {
				j.Width = eqW
			}
			if mode&2 != 0 {
				j.Estimate = eqD
			}
			if mode&4 != 0 {
				j.Width = procs
			}
			if mode&8 != 0 {
				j.Estimate = 1
			}
			j.Runtime = j.Estimate
			queued = append(queued, j)
			if r.Intn(6) == 0 {
				resv[j.ID] = now + int64(r.IntRange(-100, 4000)) // some stale: clamped to now
			}
		}
		if r.Intn(2) == 0 {
			resv = nil
		}

		want := referenceForecast(procs, now, running, queued, pol, resv)
		if got := ForecastFromState(procs, now, running, queued, pol, resv); !maps.Equal(got, want) {
			t.Fatalf("ForecastFromState diverges from the hint-free dry-run\n got %v\nwant %v", got, want)
		}
		sunk := map[int]int64{}
		put := func(id int, start int64) { sunk[id] = start }
		full := ForecastFromStateSeeded(procs, now, running, queued, pol, resv, put)
		if !maps.Equal(sunk, want) {
			t.Fatalf("seeded dry-run diverges from the hint-free dry-run\n got %v\nwant %v", sunk, want)
		}
		if err := full.profile.Check(); err != nil {
			t.Fatal(err)
		}

		ordered := SortedByPolicy(queued, pol, now)
		k := r.Intn(len(ordered) + 1)
		clear(sunk)
		seed0 := ForecastFromStateSeeded(procs, now, running, ordered[:k], pol, resv, put)
		for i := k; i < len(ordered); i++ {
			if !ExtendForecast(seed0, now, ordered[i:i+1], pol, resv, put) {
				t.Fatalf("extension refused job %d of %d, which sorts after the tail", i, len(ordered))
			}
		}
		if !maps.Equal(sunk, want) {
			t.Fatalf("forecast of %d jobs extended by %d diverges from the full one\n got %v\nwant %v", k, len(ordered)-k, sunk, want)
		}
		if len(ordered) > 0 && seed0.tail != ordered[len(ordered)-1] {
			t.Fatalf("extended seed's tail is job %d, want the policy-last job %d", seed0.tail.ID, ordered[len(ordered)-1].ID)
		}
	})
}

// benchmarkShape rebuilds the state the benchmark's reads workload forecasts
// on (benchmark/reads.go, benchmark/daemon.go's randomJob): 430 processors
// held by 43 runners of width 10, and 512 queued jobs of width 1–64 and
// estimate 600–108 000 s that all arrived at instant 0.
func benchmarkShape(seed int64) (procs int, running []RunningSlot, queued []*job.Job) {
	r := stats.NewRNG(seed)
	draw := func() (w int, est int64) {
		rt := int64(r.IntRange(600, 36000))
		return r.IntRange(1, 64), rt + int64(r.IntRange(0, 2*int(rt)))
	}
	for i := 0; i < 43; i++ {
		_, est := draw()
		running = append(running, RunningSlot{Width: 10, EstEnd: est})
	}
	for i := 0; i < 512; i++ {
		w, est := draw()
		queued = append(queued, &job.Job{ID: 44 + i, Runtime: est, Estimate: est, Width: w})
	}
	return 430, running, queued
}

// prunedHints is startHints.record with no window: every hint the new one
// dominates goes, leaving the strict Pareto list the window approximates.
func prunedHints(h startHints, w int, d, s, from int64) startHints {
	if s == from {
		return h
	}
	n, out, at := startHint{w, d, s}, startHints{}, 0
	for _, e := range h {
		if e.s <= s {
			if n.within(e.w, e.d) {
				continue
			}
			at++
		}
		out = append(out, e)
	}
	return slices.Insert(out, at, n)
}

// TestForecastCostIsInWhatItPlaces pins, without a clock, the three things
// that make a full dry-run cheap on the benchmark's queue shape
// (PERFORMANCE.md §6 "Forecasting in O(placed)"): the profile points between
// where a search starts and where it ends, summed over the queue, are at
// most a third of what searching from now would cross; pruning the hints
// only within the window behind a new one moves no search's start, so the
// points crossed are those of a fully pruned list, which the window keeps
// within a quarter more hints; and a dry-run allocates a fixed handful of
// objects, not one per job.
func TestForecastCostIsInWhatItPlaces(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		procs, running, queued := benchmarkShape(seed)
		s := &ForecastSeed{profile: NewProfile(procs)}
		s.dryRun(0, running, nil, FCFS{}, nil, nil)
		var pruned startHints
		var fromNow, fromHint int
		for i, j := range queued {
			from := s.hints.bound(0, j.Width, j.Estimate)
			if full := pruned.bound(0, j.Width, j.Estimate); full != from {
				t.Fatalf("seed %d, job %d: the windowed hints bound its search at %d, the fully pruned ones at %d", seed, i, from, full)
			}
			st, at := s.profile.findStart(from, j.Estimate, j.Width)
			fromNow += at - s.profile.indexAt(0)
			fromHint += at - s.profile.indexAt(from)
			s.place(0, queued[i:i+1], nil, func(int, int64) {})
			pruned = prunedHints(pruned, j.Width, j.Estimate, st, from)
		}
		t.Logf("seed %d: %d points from now, %d from the hints, %d hints kept (%d fully pruned), %d profile points",
			seed, fromNow, fromHint, len(s.hints), len(pruned), s.profile.NumPoints())
		if 3*fromHint > fromNow {
			t.Errorf("seed %d: searches cross %d points from their hints, more than a third of the %d from now", seed, fromHint, fromNow)
		}
		if 4*len(s.hints) > 5*len(pruned) {
			t.Errorf("seed %d: %d hints kept, more than 1.25 times the %d of a fully pruned list", seed, len(s.hints), len(pruned))
		}
	}

	// Exact on a plain build. The race detector's sync.Pool drops a quarter
	// of what is put back, so there the bound only rules out an object per job.
	seeded := 7.0
	if raceDetector {
		seeded = 24
	}
	procs, running, queued := benchmarkShape(1)
	sink := func(int, int64) {}
	if n := testing.AllocsPerRun(20, func() { ForecastFromStateSeeded(procs, 0, running, queued, FCFS{}, nil, sink) }); n > seeded {
		t.Errorf("a seeded dry-run of %d jobs allocates %.0f objects, want at most %.0f", len(queued), n, seeded)
	}
}

// raceDetector is set by race_test.go in a -race build.
var raceDetector bool

// BenchmarkForecastFullDryRun times one full dry-run over the benchmark's
// queue shape under each policy; ns/job divides by the jobs it places. XF
// gets the jobs arriving a minute apart, so its order is neither FCFS's nor
// SJF's.
func BenchmarkForecastFullDryRun(b *testing.B) {
	procs, running, queued := benchmarkShape(1)
	spread := make([]*job.Job, len(queued))
	for i, j := range queued {
		c := *j
		c.Arrival = int64(i-len(queued)) * 60
		spread[i] = &c
	}
	for _, tc := range []struct {
		pol    Policy
		queued []*job.Job
	}{{FCFS{}, queued}, {SJF{}, queued}, {XF{}, spread}} {
		b.Run(tc.pol.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				ForecastFromStateSeeded(procs, 0, running, tc.queued, tc.pol, nil, func(int, int64) { n++ })
				if n != len(tc.queued) {
					b.Fatal("short forecast")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tc.queued)), "ns/job")
		})
	}
}
