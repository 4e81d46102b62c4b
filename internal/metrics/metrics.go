// Package metrics turns raw schedule placements into the quantities the
// paper reports: per-job bounded slowdown, turnaround and wait times,
// aggregated overall, per job category (SN/SW/LN/LW), and per estimate
// quality (well/poorly estimated), plus worst-case statistics, machine
// utilization, and a schedule fingerprint used to test the §4.1 priority
// equivalence property.
package metrics

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"

	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SlowdownTau is the bounded-slowdown threshold: "The threshold of 10
// seconds is used to limit the influence of very short jobs on the metric."
const SlowdownTau = 10

// BoundedSlowdown computes (wait + max(runtime, τ)) / max(runtime, τ).
func BoundedSlowdown(wait, runtime int64) float64 {
	rt := runtime
	if rt < SlowdownTau {
		rt = SlowdownTau
	}
	if wait < 0 {
		wait = 0
	}
	return float64(wait+rt) / float64(rt)
}

// Outcome is the scheduling result for one job: its placement, and its
// category under the run's thresholds. Every other per-job quantity is
// arithmetic on the job and the placement, so it is a method rather than a
// field, and a result keeps each job in one placement's bytes plus eight.
type Outcome struct {
	Job      *job.Job
	Start    int64
	End      int64
	Category job.Category
}

// Wait is the queueing delay before the first dispatch (Start − Arrival).
func (o Outcome) Wait() int64 { return o.Start - o.Job.Arrival }

// Turnaround is End − Arrival.
func (o Outcome) Turnaround() int64 { return o.End - o.Job.Arrival }

// Delay is the total time the job was not running while in the system
// (Turnaround − Runtime, never below 0). For contiguous execution Delay ==
// Wait; preempted jobs additionally accumulate suspension time.
func (o Outcome) Delay() int64 { return max(0, o.Turnaround()-o.Job.Runtime) }

// Slowdown is the bounded slowdown of the total delay, so it prices
// suspension time for preempted jobs and reduces to the paper's definition
// for contiguous ones.
func (o Outcome) Slowdown() float64 { return BoundedSlowdown(o.Delay(), o.Job.Runtime) }

// EstimateQuality classifies the job's runtime estimate.
func (o Outcome) EstimateQuality() job.EstimateQuality { return job.ClassifyEstimate(o.Job) }

// FromPlacements converts engine placements into outcomes, classifying each
// job under the given thresholds.
func FromPlacements(ps []sim.Placement, th job.Thresholds) []Outcome {
	out := make([]Outcome, len(ps))
	for i, p := range ps {
		out[i] = Outcome{Job: p.Job, Start: p.Start, End: p.End, Category: th.Classify(p.Job)}
	}
	return out
}

// Summary aggregates outcomes.
type Summary struct {
	N                int
	MeanSlowdown     float64
	MeanTurnaround   float64
	MeanWait         float64
	MaxSlowdown      float64
	MaxTurnaround    int64 // the paper's worst-case turnaround (Tables 4, 7)
	MaxWait          int64
	P95Slowdown      float64
	MedianSlowdown   float64
	MedianTurnaround float64
}

// Summarize aggregates a set of outcomes; an empty set yields the zero
// Summary.
func Summarize(outs []Outcome) Summary {
	s := Summary{N: len(outs)}
	if len(outs) == 0 {
		return s
	}
	var sd, ta, wt stats.Accumulator
	sds := make([]float64, len(outs))
	tas := make([]float64, len(outs))
	for i, o := range outs {
		slow, turn, wait := o.Slowdown(), o.Turnaround(), o.Wait()
		sd.Add(slow)
		ta.Add(float64(turn))
		wt.Add(float64(wait))
		sds[i] = slow
		tas[i] = float64(turn)
		s.MaxTurnaround = max(s.MaxTurnaround, turn)
		s.MaxWait = max(s.MaxWait, wait)
	}
	s.MeanSlowdown = sd.Mean()
	s.MeanTurnaround = ta.Mean()
	s.MeanWait = wt.Mean()
	s.MaxSlowdown = sd.Max()
	qs := stats.Percentiles(sds, 50, 95)
	s.MedianSlowdown, s.P95Slowdown = qs[0], qs[1]
	s.MedianTurnaround = stats.Percentile(tas, 50)
	return s
}

// Report is the full per-run analysis.
type Report struct {
	Scheduler string
	Overall   Summary
	// ByCategory holds one summary per SN/SW/LN/LW category.
	ByCategory [job.NumCategories]Summary
	// ByQuality holds summaries for well- and poorly-estimated jobs.
	ByQuality [job.NumEstimateQualities]Summary
	// Utilization is delivered work / (procs × makespan), makespan running
	// from the first start to the last completion.
	Utilization float64
	// LossOfCapacity is the fraction of capacity idle while jobs waited —
	// the packing inefficiency the scheduler is responsible for.
	LossOfCapacity float64
	// Makespan is last completion − first start.
	Makespan int64
}

// Analyze builds a Report from placements.
func Analyze(schedName string, ps []sim.Placement, th job.Thresholds, procs int) Report {
	return AnalyzeOutcomes(schedName, ps, FromPlacements(ps, th), procs)
}

// AnalyzeOutcomes is Analyze over the outcome table FromPlacements made of
// ps, so a caller that keeps the table builds it once.
func AnalyzeOutcomes(schedName string, ps []sim.Placement, outs []Outcome, procs int) Report {
	rep := Report{Scheduler: schedName}
	summarizeGroups(outs, &rep)

	if len(ps) > 0 && procs > 0 {
		first, last := ps[0].Start, ps[0].End
		var work float64
		for _, p := range ps {
			if p.Start < first {
				first = p.Start
			}
			if p.End > last {
				last = p.End
			}
			work += float64(p.Job.Width) * float64(p.Job.Runtime)
		}
		rep.Makespan = last - first
		if rep.Makespan > 0 {
			rep.Utilization = work / (float64(procs) * float64(rep.Makespan))
		}
		if loss, err := LossOfCapacity(ps, procs); err == nil {
			rep.LossOfCapacity = loss
		}
	}
	return rep
}

// The report's seven groups: overall, then one per category, then one per
// estimate quality. Every outcome belongs to three of them.
const (
	groupCategory = 1
	groupQuality  = groupCategory + int(job.NumCategories)
	numGroups     = groupQuality + int(job.NumEstimateQualities)
)

// group is one summary under construction: Summarize's accumulators, fed in
// outcome order so that means and maxima come out bit-identical to it, and
// the group's segment of one shared buffer, slowdowns in vals[:n] and
// turnarounds in vals[n:].
type group struct {
	sd, ta, wt     stats.Accumulator
	maxTA, maxWait int64
	vals           []float64
}

// add feeds one outcome's slowdown, turnaround and wait to the group.
func (g *group) add(slow float64, turn, wait int64) {
	n := len(g.vals) / 2
	i := int(g.sd.N())
	g.sd.Add(slow)
	g.ta.Add(float64(turn))
	g.wt.Add(float64(wait))
	g.vals[i] = slow
	g.vals[n+i] = float64(turn)
	g.maxTA = max(g.maxTA, turn)
	g.maxWait = max(g.maxWait, wait)
}

// summary reads the group as Summarize does. Its three quantiles come from
// selections in place over the group's segment, which read the same order
// statistics Summarize's sorted copies do.
func (g *group) summary() Summary {
	n := len(g.vals) / 2
	s := Summary{N: n}
	if n == 0 {
		return s
	}
	sds, tas := g.vals[:n], g.vals[n:]
	s.MeanSlowdown = g.sd.Mean()
	s.MeanTurnaround = g.ta.Mean()
	s.MeanWait = g.wt.Mean()
	s.MaxSlowdown = g.sd.Max()
	s.MaxTurnaround = g.maxTA
	s.MaxWait = g.maxWait
	s.MedianSlowdown = stats.PercentileSelect(sds, 50)
	s.P95Slowdown = stats.PercentileSelect(sds, 95)
	s.MedianTurnaround = stats.PercentileSelect(tas, 50)
	return s
}

// scratch is the buffers an analysis needs only while it runs. scratchPool
// holds those that finished analyses handed back, so the next analysis of
// as many jobs allocates none: a sync.Pool, so that the collector drops
// them rather than keeping them live between runs. slots goes back zeroed.
type scratch struct {
	vals         []float64
	slots        []fingerprintSlot
	arrivals     []int64
	starts, ends []lossEdge
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// sized returns b resliced to n elements, or a new slice when b is short.
func sized[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// summarizeGroups fills rep's seven summaries — each what Summarize returns
// for the group's outcomes — from one counted buffer and one pass over outs,
// which derives each outcome's slowdown, turnaround and wait once for its
// three groups.
func summarizeGroups(outs []Outcome, rep *Report) {
	var count [numGroups]int
	for i := range outs {
		count[0]++
		count[groupCategory+int(outs[i].Category)]++
		count[groupQuality+int(outs[i].EstimateQuality())]++
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.vals = sized(sc.vals, 2*3*len(outs)) // two values in each of three groups
	vals := sc.vals
	var gs [numGroups]group
	for g := range gs {
		gs[g].vals, vals = vals[:2*count[g]], vals[2*count[g]:]
	}
	for _, o := range outs {
		slow, turn, wait := o.Slowdown(), o.Turnaround(), o.Wait()
		gs[0].add(slow, turn, wait)
		gs[groupCategory+int(o.Category)].add(slow, turn, wait)
		gs[groupQuality+int(o.EstimateQuality())].add(slow, turn, wait)
	}
	rep.Overall = gs[0].summary()
	for c := range rep.ByCategory {
		rep.ByCategory[c] = gs[groupCategory+c].summary()
	}
	for q := range rep.ByQuality {
		rep.ByQuality[q] = gs[groupQuality+q].summary()
	}
}

// SubsetSummary summarises the outcomes of a specific set of job IDs —
// used by the Figure 4 analysis, which compares the *same* jobs under
// different estimate regimes.
func SubsetSummary(outs []Outcome, ids map[int]bool) Summary {
	var sel []Outcome
	for _, o := range outs {
		if ids[o.Job.ID] {
			sel = append(sel, o)
		}
	}
	return Summarize(sel)
}

// PercentChange returns 100 × (v − base)/base: the paper's Figure 2
// "relative change in slowdown" view. A zero base with nonzero v reports
// +Inf-free sentinel 0 and an error.
func PercentChange(base, v float64) (float64, error) {
	if base == 0 {
		return 0, fmt.Errorf("metrics: percent change against zero base")
	}
	return 100 * (v - base) / base, nil
}

// Fingerprint hashes the schedule (job ID, start) pairs, order-independent
// via sorting, so two runs can be compared for exact schedule equality —
// the §4.1 priority-equivalence check.
func Fingerprint(ps []sim.Placement) uint64 {
	if h, ok := fingerprintDense(ps); ok {
		return h
	}
	return fingerprintSorted(ps)
}

// fingerprintSorted is Fingerprint for any set of IDs: the pairs sorted by
// ID, then start.
func fingerprintSorted(ps []sim.Placement) uint64 {
	type pair struct {
		id    int
		start int64
	}
	pairs := make([]pair, len(ps))
	for i, p := range ps {
		pairs[i] = pair{p.Job.ID, p.Start}
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.start, b.start)
	})
	h := fnv.New64a()
	var buf [16]byte
	for _, p := range pairs {
		putUint64(buf[0:8], uint64(p.id))
		putUint64(buf[8:16], uint64(p.start))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// fingerprintDense is Fingerprint without the sort, for the common case of
// job IDs that are a permutation of one contiguous range: each start lands
// in its ID's slot, which is the sorted order. It reports false on an empty
// set, a gap or a duplicate ID.
func fingerprintDense(ps []sim.Placement) (uint64, bool) {
	if len(ps) == 0 {
		return 0, false
	}
	lo, hi := ps[0].Job.ID, ps[0].Job.ID
	for _, p := range ps[1:] {
		lo = min(lo, p.Job.ID)
		hi = max(hi, p.Job.ID)
	}
	// The span in unsigned arithmetic cannot overflow, whatever the IDs.
	if uint64(hi)-uint64(lo) != uint64(len(ps)-1) {
		return 0, false
	}
	sc := scratchPool.Get().(*scratch)
	sc.slots = sized(sc.slots, len(ps))
	slots := sc.slots
	defer func() {
		clear(slots)
		scratchPool.Put(sc)
	}()
	for _, p := range ps {
		s := &slots[p.Job.ID-lo]
		if s.set {
			return 0, false // a duplicate, so somewhere a gap
		}
		*s = fingerprintSlot{p.Start, true}
	}
	h := fnv.New64a()
	var buf [16]byte
	for i, s := range slots {
		putUint64(buf[0:8], uint64(lo+i))
		putUint64(buf[8:16], uint64(s.start))
		h.Write(buf[:])
	}
	return h.Sum64(), true
}

// fingerprintSlot is fingerprintDense's record of one ID's start.
type fingerprintSlot struct {
	start int64
	set   bool
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
