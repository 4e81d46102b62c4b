// Brute-force references for the paper's two schedulers: EASY and
// conservative backfilling with compression, under FCFS, SJF and XF. They
// are written from the definitions (Mu'alem and Feitelson, as DESIGN.md §4
// states them), never from the engines: this file imports only internal/job
// and the standard library, and calls nothing defined in another file.
// Time runs one second at a time, on per-second processor arrays, so the
// references suit workloads of tens of jobs, not traces.
//
// The paper leaves three choices open. Each is made here by name, and
// DESIGN.md §7 gives what the alternatives change:
//
//   - Simultaneous completions are taken one at a time, in the order their
//     jobs started (jobs that started at the same instant in policy order),
//     and under conservative each gets its own compression pass.
//   - A compression is one pass over the queue in policy order; it is not
//     iterated to a fixpoint.
//   - Passes run only at event instants: an arrival or a completion.
//
// Both references take runtimes of at least one second and assume the jobs
// are given in (arrival, ID) order, the order the simulator delivers
// same-instant arrivals in.
package sched_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/job"
)

// refBefore reports whether policy pol ("FCFS", "SJF" or "XF") takes a
// before b at instant now. SJF orders by estimate; XF by expansion factor
// (wait + estimate) / estimate, largest first, compared exactly by
// cross-multiplying. Ties fall back to FCFS: arrival, then ID.
func refBefore(pol string, a, b *job.Job, now int64) bool {
	switch pol {
	case "FCFS":
	case "SJF":
		if a.Estimate != b.Estimate {
			return a.Estimate < b.Estimate
		}
	case "XF":
		xa := (now - a.Arrival + a.Estimate) * b.Estimate
		xb := (now - b.Arrival + b.Estimate) * a.Estimate
		if xa != xb {
			return xa > xb
		}
	default:
		panic(fmt.Sprintf("reference: unknown policy %q", pol))
	}
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

// refOrder sorts queue into pol's order at now.
func refOrder(pol string, queue []*job.Job, now int64) {
	slices.SortFunc(queue, func(a, b *job.Job) int {
		switch {
		case refBefore(pol, a, b, now):
			return -1
		case refBefore(pol, b, a, now):
			return 1
		}
		return 0
	})
}

// refHorizon is a length of per-second array no schedule of jobs outgrows:
// every job starts by the last arrival plus the sum of the estimates, and
// its window ends one estimate later.
func refHorizon(jobs []*job.Job) int64 {
	var h int64
	for _, j := range jobs {
		if j.Runtime < 1 {
			panic(fmt.Sprintf("reference: %v runs for less than a second", j))
		}
		h = max(h, j.Arrival)
	}
	for _, j := range jobs {
		h += 2 * j.Estimate
	}
	return h + 1
}

// refHold adds width to used over [from, to).
func refHold(used []int, from, to int64, width int) {
	for t := from; t < to; t++ {
		used[t] += width
	}
}

// refEvent returns the jobs that arrive at now and the runners that
// complete at now, those in the order they started.
func refEvent(jobs, running []*job.Job, start map[int]int64, now int64) (arrived, done []*job.Job) {
	for _, j := range jobs {
		if j.Arrival == now {
			arrived = append(arrived, j)
		}
	}
	for _, r := range running {
		if start[r.ID]+r.Runtime == now {
			done = append(done, r)
		}
	}
	return arrived, done
}

// easyReference returns each job's start under EASY backfilling with
// policy pol on procs processors. A pass runs at each event instant, after
// its completions and then its arrivals: it takes the queue in policy order
// and starts heads while they fit. For a blocked head, the shadow is the
// first second at which the runners' estimated ends leave enough
// processors free for it, and extra is what is free then beyond its width.
// Every other job, in order, starts if it fits now and either ends by the
// shadow or fits in what is left of extra.
func easyReference(procs int, pol string, jobs []*job.Job) map[int]int64 {
	// used[t] is what the runners' estimated windows hold at second t.
	used := make([]int, refHorizon(jobs))
	start := make(map[int]int64, len(jobs))
	var queue, running []*job.Job
	for now := int64(0); len(start) < len(jobs); now++ {
		arrived, done := refEvent(jobs, running, start, now)
		if len(arrived)+len(done) == 0 {
			continue
		}
		for _, r := range done {
			refHold(used, now, start[r.ID]+r.Estimate, -r.Width)
			running = slices.DeleteFunc(running, func(x *job.Job) bool { return x == r })
		}
		queue = append(queue, arrived...)
		refOrder(pol, queue, now)
		run := func(j *job.Job) {
			start[j.ID] = now
			refHold(used, now, now+j.Estimate, j.Width)
			running = append(running, j)
		}
		for len(queue) > 0 && queue[0].Width <= procs-used[now] {
			run(queue[0])
			queue = queue[1:]
		}
		if len(queue) == 0 {
			continue
		}
		head := queue[0]
		shadow := now
		for procs-used[shadow] < head.Width {
			shadow++
		}
		extra := procs - used[shadow] - head.Width
		kept := []*job.Job{head}
		for _, j := range queue[1:] {
			byShadow := now+j.Estimate <= shadow
			if j.Width > procs-used[now] || !byShadow && j.Width > extra {
				kept = append(kept, j)
				continue
			}
			if !byShadow {
				extra -= j.Width
			}
			run(j)
		}
		queue = kept
	}
	return start
}

// conservativeReference returns each job's start under conservative
// backfilling with compression, with policy pol on procs processors. An
// arrival reserves the earliest window that every other window leaves
// free. A completion releases the unused tail of the finished job's
// window, and one compression pass follows: the queued windows, in policy
// order at that instant, each move to their earliest feasible start no
// later than their current one, all other windows held. Jobs whose window
// is due then start, in policy order.
func conservativeReference(procs int, pol string, jobs []*job.Job) map[int]int64 {
	// used[t] is what every window, running or reserved, holds at second t.
	used := make([]int, refHorizon(jobs))
	// earliest is the first start at or after from whose window of dur
	// seconds has width processors free throughout.
	earliest := func(from, dur int64, width int) int64 {
		s := from
		for t := s; t < s+dur; t++ {
			if procs-used[t] < width {
				s = t + 1
			}
		}
		return s
	}
	window := make(map[int]int64, len(jobs))
	start := make(map[int]int64, len(jobs))
	var queue, running []*job.Job
	for now := int64(0); len(start) < len(jobs); now++ {
		arrived, done := refEvent(jobs, running, start, now)
		if len(arrived)+len(done) == 0 {
			for _, j := range queue {
				if window[j.ID] == now {
					panic(fmt.Sprintf("reference: %v's window falls due at %d, between events", j, now))
				}
			}
			continue
		}
		for _, r := range done {
			refHold(used, now, start[r.ID]+r.Estimate, -r.Width)
			running = slices.DeleteFunc(running, func(x *job.Job) bool { return x == r })
			refOrder(pol, queue, now)
			for _, j := range queue {
				w := window[j.ID]
				refHold(used, w, w+j.Estimate, -j.Width)
				w = earliest(now, j.Estimate, j.Width)
				refHold(used, w, w+j.Estimate, j.Width)
				window[j.ID] = w
			}
		}
		for _, j := range arrived {
			w := earliest(now, j.Estimate, j.Width)
			refHold(used, w, w+j.Estimate, j.Width)
			window[j.ID] = w
			queue = append(queue, j)
		}
		refOrder(pol, queue, now)
		kept := queue[:0]
		for _, j := range queue {
			if window[j.ID] > now {
				kept = append(kept, j)
				continue
			}
			start[j.ID] = now
			running = append(running, j)
		}
		queue = kept
	}
	return start
}

// TestReferencePins pins both references under FCFS on three small
// scenarios, worked by hand.
func TestReferencePins(t *testing.T) {
	mk := func(id int, arrival, runtime, estimate int64, width int) *job.Job {
		return &job.Job{ID: id, Arrival: arrival, Runtime: runtime, Estimate: estimate, Width: width}
	}
	cases := []struct {
		name      string
		procs     int
		jobs      []*job.Job
		easy, con map[int]int64
	}{{
		// The canonical backfill: J3 runs beside J1 while J2 waits for
		// J1's processors.
		name:  "backfill",
		procs: 10,
		jobs:  []*job.Job{mk(1, 0, 100, 100, 6), mk(2, 1, 100, 100, 6), mk(3, 2, 50, 50, 4)},
		easy:  map[int]int64{1: 0, 2: 100, 3: 2},
		con:   map[int]int64{1: 0, 2: 100, 3: 2},
	}, {
		// EASY protects only the head, J2: J4 takes the processor J2
		// leaves over and delays J3 to its end. Conservative reserved J3
		// first, so J4 waits until J3 is done.
		name:  "head only",
		procs: 4,
		jobs:  []*job.Job{mk(1, 0, 10, 10, 3), mk(2, 1, 10, 10, 3), mk(3, 2, 10, 10, 4), mk(4, 3, 100, 100, 1)},
		easy:  map[int]int64{1: 0, 2: 10, 3: 103, 4: 3},
		con:   map[int]int64{1: 0, 2: 10, 3: 20, 4: 30},
	}, {
		// J1 ends 20 s before its estimate; J2's window moves from 30 to
		// 21, when J3 frees its processors.
		name:  "compression",
		procs: 4,
		jobs:  []*job.Job{mk(1, 0, 10, 30, 2), mk(2, 0, 10, 10, 4), mk(3, 1, 20, 20, 2)},
		easy:  map[int]int64{1: 0, 2: 21, 3: 1},
		con:   map[int]int64{1: 0, 2: 21, 3: 1},
	}}
	for _, c := range cases {
		for _, r := range []struct {
			name string
			ref  func(int, string, []*job.Job) map[int]int64
			want map[int]int64
		}{{"easy", easyReference, c.easy}, {"conservative", conservativeReference, c.con}} {
			got := r.ref(c.procs, "FCFS", c.jobs)
			for id, w := range r.want {
				if got[id] != w {
					t.Errorf("%s, %s: job %d starts at %d, want %d", c.name, r.name, id, got[id], w)
				}
			}
		}
	}
}
