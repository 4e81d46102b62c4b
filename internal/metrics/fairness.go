package metrics

import (
	"sort"

	"repro/internal/stats"
)

// Fairness quantifies how evenly a scheduler spreads delay across jobs —
// the flip side of the paper's worst-case turnaround discussion (EASY's
// unbounded tail is a fairness failure concentrated on a few victims, which
// averages hide).
type Fairness struct {
	// GiniSlowdown is the Gini coefficient of per-job slowdowns: 0 when
	// every job has the same slowdown, approaching 1 when a few jobs
	// absorb all of it.
	GiniSlowdown float64
	// GiniWait is the Gini coefficient of per-job wait times.
	GiniWait float64
	// TailRatio99 is P99/P50 of slowdown — how much worse the unlucky 1 %
	// fare than the typical job (0 when the median slowdown is 0).
	TailRatio99 float64
	// MaxMeanRatio is max/mean slowdown.
	MaxMeanRatio float64
}

// ComputeFairness derives fairness measures from outcomes. An empty input
// yields the zero value.
func ComputeFairness(outs []Outcome) Fairness {
	var f Fairness
	if len(outs) == 0 {
		return f
	}
	slows := make([]float64, len(outs))
	waits := make([]float64, len(outs))
	for i, o := range outs {
		slows[i] = o.Slowdown()
		waits[i] = float64(o.Wait())
	}
	f.GiniSlowdown = gini(slows)
	f.GiniWait = gini(waits)

	sorted := append([]float64(nil), slows...)
	sort.Float64s(sorted)
	p50 := stats.PercentileSorted(sorted, 50)
	p99 := stats.PercentileSorted(sorted, 99)
	if p50 > 0 {
		f.TailRatio99 = p99 / p50
	}
	mean := 0.0
	for _, v := range slows {
		mean += v
	}
	mean /= float64(len(slows))
	if mean > 0 {
		f.MaxMeanRatio = sorted[len(sorted)-1] / mean
	}
	return f
}

// gini computes the Gini coefficient of non-negative values. Negative
// values are clamped to zero (waits can never be negative; defensive).
func gini(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	for i, v := range xs {
		if v < 0 {
			v = 0
		}
		s[i] = v
	}
	sort.Float64s(s)
	var cum, total float64
	for i, v := range s {
		// Weighted rank sum formulation: G = (2Σ i·x_i)/(nΣx) − (n+1)/n.
		cum += float64(i+1) * v
		total += v
	}
	n := float64(len(s))
	if total == 0 {
		return 0
	}
	g := (2*cum)/(n*total) - (n+1)/n
	if g < 0 {
		g = 0 // numerical noise on near-uniform inputs
	}
	return g
}
