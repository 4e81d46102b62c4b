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

// Outcome is the scheduling result for one job.
type Outcome struct {
	Job   *job.Job
	Start int64
	End   int64
	// Wait is the queueing delay before the first dispatch (Start −
	// Arrival).
	Wait int64
	// Delay is the total time the job was not running while in the system
	// (Turnaround − Runtime). For contiguous execution Delay == Wait;
	// preempted jobs additionally accumulate suspension time.
	Delay           int64
	Turnaround      int64 // End − Arrival
	Slowdown        float64
	Category        job.Category
	EstimateQuality job.EstimateQuality
}

// FromPlacements converts engine placements into outcomes, classifying each
// job under the given thresholds. Slowdown is computed from the total
// delay, so it prices suspension time for preempted jobs and reduces to the
// paper's definition for contiguous ones.
func FromPlacements(ps []sim.Placement, th job.Thresholds) []Outcome {
	out := make([]Outcome, len(ps))
	for i, p := range ps {
		wait := p.Start - p.Job.Arrival
		turnaround := p.End - p.Job.Arrival
		delay := turnaround - p.Job.Runtime
		if delay < 0 {
			delay = 0
		}
		out[i] = Outcome{
			Job:             p.Job,
			Start:           p.Start,
			End:             p.End,
			Wait:            wait,
			Delay:           delay,
			Turnaround:      turnaround,
			Slowdown:        BoundedSlowdown(delay, p.Job.Runtime),
			Category:        th.Classify(p.Job),
			EstimateQuality: job.ClassifyEstimate(p.Job),
		}
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
		sd.Add(o.Slowdown)
		ta.Add(float64(o.Turnaround))
		wt.Add(float64(o.Wait))
		sds[i] = o.Slowdown
		tas[i] = float64(o.Turnaround)
		if o.Turnaround > s.MaxTurnaround {
			s.MaxTurnaround = o.Turnaround
		}
		if o.Wait > s.MaxWait {
			s.MaxWait = o.Wait
		}
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
	outs := FromPlacements(ps, th)
	rep := Report{Scheduler: schedName, Overall: Summarize(outs)}

	var perCat [job.NumCategories][]Outcome
	var perQual [job.NumEstimateQualities][]Outcome
	for _, o := range outs {
		perCat[o.Category] = append(perCat[o.Category], o)
		perQual[o.EstimateQuality] = append(perQual[o.EstimateQuality], o)
	}
	for c := range perCat {
		rep.ByCategory[c] = Summarize(perCat[c])
	}
	for q := range perQual {
		rep.ByQuality[q] = Summarize(perQual[q])
	}

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

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
