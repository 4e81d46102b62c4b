// Package trace transforms and summarises job traces: the load-scaling
// transform the paper uses to create its "high load" condition (shrinking
// inter-arrival times), filtering and renumbering helpers, and the trace
// statistics behind Tables 2 and 3 (category mixes, offered load, estimate
// quality).
package trace

import (
	"fmt"
	"sort"

	"repro/internal/job"
)

// ScaleLoad returns a copy of jobs with every inter-arrival gap multiplied
// by factor, preserving arrival order and the first arrival time. A factor
// below 1 compresses the trace — the paper's high-load condition; above 1
// thins it. Runtime, estimate and width are untouched, so the workload's
// per-job character is identical and only the pressure changes.
func ScaleLoad(jobs []*job.Job, factor float64) ([]*job.Job, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("trace: ScaleLoad factor %v must be positive", factor)
	}
	out := job.CloneAll(jobs)
	if len(out) == 0 {
		return out, nil
	}
	sortByArrival(out)
	prevOld := out[0].Arrival
	prevNew := out[0].Arrival
	for i := 1; i < len(out); i++ {
		gap := float64(out[i].Arrival - prevOld)
		prevOld = out[i].Arrival
		prevNew += int64(gap*factor + 0.5)
		out[i].Arrival = prevNew
	}
	return out, nil
}

// FilterWidth returns the jobs no wider than maxWidth (used to replay a
// trace on a smaller machine).
func FilterWidth(jobs []*job.Job, maxWidth int) []*job.Job {
	var out []*job.Job
	for _, j := range jobs {
		if j.Width <= maxWidth {
			out = append(out, j.Clone())
		}
	}
	return out
}

// Window returns clones of the jobs arriving in [from, to).
func Window(jobs []*job.Job, from, to int64) []*job.Job {
	var out []*job.Job
	for _, j := range jobs {
		if j.Arrival >= from && j.Arrival < to {
			out = append(out, j.Clone())
		}
	}
	return out
}

func sortByArrival(jobs []*job.Job) {
	sort.SliceStable(jobs, func(i, k int) bool {
		if jobs[i].Arrival != jobs[k].Arrival {
			return jobs[i].Arrival < jobs[k].Arrival
		}
		return jobs[i].ID < jobs[k].ID
	})
}

// Stats summarises a trace.
type Stats struct {
	Jobs        int
	Span        int64   // last arrival − first arrival, seconds
	TotalWork   float64 // Σ width × runtime, processor-seconds
	MeanRuntime float64
	MeanWidth   float64
	// Mix is the category distribution (Tables 2–3).
	Mix job.Mix
	// CategoryCounts are absolute counts per category.
	CategoryCounts [job.NumCategories]int
	// WellEstimated / PoorlyEstimated count the §5.2 estimate classes.
	WellEstimated   int
	PoorlyEstimated int
	// MeanOverestimate is the mean estimate/runtime factor.
	MeanOverestimate float64
}

// Summarize computes Stats under the given category thresholds.
func Summarize(jobs []*job.Job, th job.Thresholds) Stats {
	s := Stats{Jobs: len(jobs), Mix: job.CategoryMix(jobs, th)}
	if len(jobs) == 0 {
		return s
	}
	minA, maxA := jobs[0].Arrival, jobs[0].Arrival
	var sumRT, sumW, sumOver float64
	for _, j := range jobs {
		if j.Arrival < minA {
			minA = j.Arrival
		}
		if j.Arrival > maxA {
			maxA = j.Arrival
		}
		s.TotalWork += float64(j.Width) * float64(j.Runtime)
		sumRT += float64(j.Runtime)
		sumW += float64(j.Width)
		sumOver += j.OverestimationFactor()
		s.CategoryCounts[th.Classify(j)]++
		if job.ClassifyEstimate(j) == job.WellEstimated {
			s.WellEstimated++
		} else {
			s.PoorlyEstimated++
		}
	}
	s.Span = maxA - minA
	n := float64(len(jobs))
	s.MeanRuntime = sumRT / n
	s.MeanWidth = sumW / n
	s.MeanOverestimate = sumOver / n
	return s
}

// OfferedLoad returns total work divided by machine capacity over the trace
// span: the demand the trace places on a procs-wide machine. Zero-span
// traces report 0.
func OfferedLoad(jobs []*job.Job, procs int) float64 {
	if procs < 1 || len(jobs) < 2 {
		return 0
	}
	s := Summarize(jobs, job.PaperThresholds())
	if s.Span <= 0 {
		return 0
	}
	return s.TotalWork / (float64(procs) * float64(s.Span))
}
