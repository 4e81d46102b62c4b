package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/sim"
)

// TimelinePoint samples system state at one instant.
type TimelinePoint struct {
	Time int64
	// Busy is the number of processors in use.
	Busy int
	// Queued is the number of jobs that have arrived but not started.
	Queued int
}

// Timeline samples processor usage and queue depth at fixed intervals over
// a finished schedule. It reconstructs both signals from placements alone,
// so any scheduler's run can be inspected after the fact. step must be
// positive; placements may be in any order.
func Timeline(ps []sim.Placement, step int64) ([]TimelinePoint, error) {
	if step <= 0 {
		return nil, fmt.Errorf("metrics: Timeline step %d must be positive", step)
	}
	if len(ps) == 0 {
		return nil, nil
	}

	type edge struct {
		t     int64
		dBusy int // processor delta at t
		dQ    int // queue-depth delta at t
	}
	edges := make([]edge, 0, len(ps)*3)
	minT, maxT := ps[0].Job.Arrival, ps[0].End
	for _, p := range ps {
		edges = append(edges,
			edge{t: p.Job.Arrival, dQ: +1},
			edge{t: p.Start, dBusy: +p.Job.Width, dQ: -1},
			edge{t: p.End, dBusy: -p.Job.Width},
		)
		if p.Job.Arrival < minT {
			minT = p.Job.Arrival
		}
		if p.End > maxT {
			maxT = p.End
		}
	}
	sort.Slice(edges, func(i, k int) bool { return edges[i].t < edges[k].t })

	var out []TimelinePoint
	busy, queued := 0, 0
	i := 0
	for t := minT; t <= maxT; t += step {
		for i < len(edges) && edges[i].t <= t {
			busy += edges[i].dBusy
			queued += edges[i].dQ
			i++
		}
		out = append(out, TimelinePoint{Time: t, Busy: busy, Queued: queued})
	}
	return out, nil
}

// LossOfCapacity measures the fraction of machine capacity that sat idle
// *while work was waiting* — the classic packing-inefficiency metric: idle
// processors with an empty queue are just low load, but idle processors
// with queued jobs are capacity the scheduler failed to deliver. Computed
// from the placements' exact event edges over [first arrival, last
// completion]: arrivals, starts (in order already when ps is, as sim.Run
// returns it) and ends, merged in time order. Edges sharing an instant may
// come in any order: the area up to an instant is taken before any applies.
func LossOfCapacity(ps []sim.Placement, procs int) (float64, error) {
	if procs < 1 {
		return 0, fmt.Errorf("metrics: LossOfCapacity with %d processors", procs)
	}
	if len(ps) == 0 {
		return 0, nil
	}
	byTime := func(a, b lossEdge) int { return cmp.Compare(a.t, b.t) }
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	n := len(ps)
	sc.arrivals, sc.starts, sc.ends = sized(sc.arrivals, n), sized(sc.starts, n), sized(sc.ends, n)
	arrivals, starts, ends := sc.arrivals, sc.starts, sc.ends
	for i, p := range ps {
		arrivals[i] = p.Job.Arrival
		starts[i] = lossEdge{p.Start, p.Job.Width}
		ends[i] = lossEdge{p.End, p.Job.Width}
	}
	slices.Sort(arrivals)
	if !slices.IsSortedFunc(starts, byTime) {
		slices.SortFunc(starts, byTime)
	}
	slices.SortFunc(ends, byTime)

	var lost, total int64
	busy, queued := 0, 0
	prev := arrivals[0]
	a, s, e := 0, 0, 0
	for e < len(ends) || s < len(starts) || a < len(arrivals) {
		t := int64(math.MaxInt64)
		if a < len(arrivals) {
			t = arrivals[a]
		}
		if s < len(starts) {
			t = min(t, starts[s].t)
		}
		if e < len(ends) {
			t = min(t, ends[e].t)
		}
		if t > prev {
			span := t - prev
			total += span * int64(procs)
			if queued > 0 {
				lost += span * int64(procs-busy)
			}
			prev = t
		}
		for ; a < len(arrivals) && arrivals[a] == t; a++ {
			queued++
		}
		for ; s < len(starts) && starts[s].t == t; s++ {
			busy += starts[s].width
			queued--
		}
		for ; e < len(ends) && ends[e].t == t; e++ {
			busy -= ends[e].width
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(lost) / float64(total), nil
}

// lossEdge is one start or end in LossOfCapacity's sweep.
type lossEdge struct {
	t     int64
	width int
}

// PeakQueueDepth returns the largest queue depth over the schedule,
// computed exactly from the event edges (not sampled).
func PeakQueueDepth(ps []sim.Placement) int {
	type edge struct {
		t  int64
		dq int
		// starts sort before arrivals at the same instant: a job that
		// starts the moment another arrives frees its slot first.
		kind int
	}
	edges := make([]edge, 0, len(ps)*2)
	for _, p := range ps {
		edges = append(edges, edge{t: p.Job.Arrival, dq: +1, kind: 1})
		edges = append(edges, edge{t: p.Start, dq: -1, kind: 0})
	}
	sort.Slice(edges, func(i, k int) bool {
		if edges[i].t != edges[k].t {
			return edges[i].t < edges[k].t
		}
		return edges[i].kind < edges[k].kind
	})
	depth, peak := 0, 0
	for _, e := range edges {
		depth += e.dq
		if depth > peak {
			peak = depth
		}
	}
	return peak
}
