package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/job"
	"repro/internal/stats"
)

// EstimateModel rewrites jobs' user runtime estimates. Models must keep
// estimates valid: at least 1 second and at least the job's runtime (the
// scheduler kills jobs at the limit, so a trace with runtime > estimate is
// inconsistent).
type EstimateModel interface {
	// Name labels the model in reports, e.g. "exact", "R=2", "actual".
	Name() string
	// Estimate returns the user's estimate for j.
	Estimate(j *job.Job, r *stats.RNG) int64
}

// ApplyEstimates returns cloned jobs with estimates rewritten by m,
// deterministically for a given seed. Input jobs are not modified.
func ApplyEstimates(jobs []*job.Job, m EstimateModel, seed int64) []*job.Job {
	r := stats.NewRNG(seed)
	out := make([]*job.Job, len(jobs))
	for i, j := range jobs {
		c := j.Clone()
		est := m.Estimate(c, r)
		if min := c.Runtime; est < min {
			est = min
		}
		if est < 1 {
			est = 1
		}
		c.Estimate = est
		out[i] = c
	}
	return out
}

// Keep preserves whatever estimates the jobs already carry (a parsed SWF
// trace's native estimates, for instance).
type Keep struct{}

// Name returns "keep".
func (Keep) Name() string { return "keep" }

// Estimate returns the job's existing estimate.
func (Keep) Estimate(j *job.Job, _ *stats.RNG) int64 { return j.Estimate }

// Exact sets every estimate equal to the actual runtime — the idealised
// assumption of §4 of the paper.
type Exact struct{}

// Name returns "exact".
func (Exact) Name() string { return "exact" }

// Estimate returns the job's runtime (floored at 1 second).
func (Exact) Estimate(j *job.Job, _ *stats.RNG) int64 {
	if j.Runtime < 1 {
		return 1
	}
	return j.Runtime
}

// Systematic multiplies every runtime by a fixed factor R — the paper's §5.1
// systematic overestimation study (R = 1, 2, 4).
type Systematic struct {
	R float64
}

// Name returns e.g. "R=2".
func (s Systematic) Name() string {
	return "R=" + strconv.FormatFloat(s.R, 'g', -1, 64)
}

// Estimate returns ceil(R × runtime), at least 1.
func (s Systematic) Estimate(j *job.Job, _ *stats.RNG) int64 {
	rt := j.Runtime
	if rt < 1 {
		rt = 1
	}
	est := int64(math.Ceil(s.R * float64(rt)))
	if est < rt {
		est = rt
	}
	if est < 1 {
		est = 1
	}
	return est
}

// Actual models the estimates real users supply, following the shape
// measured by Mu'alem & Feitelson on the SP2 logs: a spike of accurate
// estimates, a body where the runtime is a roughly uniform fraction of the
// estimate (so the overestimation factor 1/f has a heavy tail), and
// rounding of estimates up to "human" wall-limit values. Each synthetic
// user carries a habitual padding style so the same user's jobs look alike.
type Actual struct {
	// ExactFraction is the probability a job's estimate is dead-on
	// (default 0.15 when zero).
	ExactFraction float64
	// MinFraction bounds how small runtime/estimate can get in the body
	// (default 0.05 when zero). Smaller means wilder overestimates.
	MinFraction float64
	// MaxEstimate caps estimates at the queue's wall-limit, as production
	// schedulers do (default 18 h when zero). The cap is what makes
	// poorly-estimated jobs predominantly *short* jobs that died early —
	// a long job cannot carry a 20× estimate because the queue would
	// reject it.
	MaxEstimate int64
	// AbortFraction is the probability a job behaves like a crashed run:
	// its estimate is an hour-scale wall limit unrelated to its (often
	// tiny) runtime (default 0.15 when zero). Archive traces are full of
	// such jobs, and they dominate the slowdown deterioration the paper
	// reports for actual estimates — a 30-second crash holding a 4-hour
	// limit waits like a 4-hour job. Set negative to disable.
	AbortFraction float64
	// PerUser, when true, additionally scales padding by a per-user
	// habitual factor derived from the job's User field.
	PerUser bool
}

// Name returns "actual".
func (Actual) Name() string { return "actual" }

// Estimate draws the estimate for j.
func (a Actual) Estimate(j *job.Job, r *stats.RNG) int64 {
	exactP := a.ExactFraction
	if exactP == 0 {
		exactP = 0.15
	}
	minF := a.MinFraction
	if minF == 0 {
		minF = 0.05
	}
	maxEst := a.MaxEstimate
	if maxEst == 0 {
		maxEst = 18 * 3600
	}
	abortP := a.AbortFraction
	if abortP == 0 {
		abortP = 0.10
	}
	rt := j.Runtime
	if rt < 1 {
		rt = 1
	}
	if r.Bool(exactP) {
		return rt
	}
	if abortP > 0 && r.Bool(abortP) {
		// Crashed run: the user asked for a typical hour-scale limit.
		limit := abortLimits.Sample(r)
		est := int64(limit)
		if est > maxEst {
			est = maxEst
		}
		if est < rt {
			est = rt
		}
		return est
	}
	// runtime = f × estimate with f ~ Uniform(minF, 1): the estimate is
	// runtime / f.
	f := r.Range(minF, 1)
	est := float64(rt) / f
	if a.PerUser {
		est *= userPadFactor(j.User)
	}
	rounded := roundUpHuman(int64(math.Ceil(est)), rt)
	if rounded > maxEst {
		rounded = maxEst
	}
	if rounded < rt {
		rounded = rt // never below the runtime, even against the cap
	}
	return rounded
}

// userPadFactor derives a stable habitual padding multiplier in [1, 2]
// from a user ID.
func userPadFactor(user int) float64 {
	// Cheap deterministic hash onto [0, 1).
	h := uint64(user)*2654435761 + 12345
	h ^= h >> 13
	frac := float64(h%1000) / 1000
	return 1 + frac
}

// abortLimits is the distribution of wall limits carried by crashed runs:
// the hour-scale values users habitually request.
var abortLimits = stats.MustDiscrete(
	[]float64{900, 1800, 3600, 2 * 3600, 4 * 3600, 6 * 3600},
	[]float64{2, 3, 4, 3, 2, 1},
)

// humanLimits are the wall-limit values users actually type, in seconds.
var humanLimits = []int64{
	60, 120, 300, 600, 900, 1200, 1800, 2700, 3600, // up to 1 h
	2 * 3600, 3 * 3600, 4 * 3600, 6 * 3600, 8 * 3600,
	10 * 3600, 12 * 3600, 15 * 3600, 18 * 3600, 24 * 3600,
	36 * 3600, 48 * 3600, 72 * 3600,
}

// roundUpHuman rounds est up to the next human wall-limit value, never
// below floor. Estimates beyond the largest human limit round up to whole
// hours.
func roundUpHuman(est, floor int64) int64 {
	if est < floor {
		est = floor
	}
	for _, h := range humanLimits {
		if h >= est {
			return max(h, floor)
		}
	}
	hours := (est + 3599) / 3600
	return max(hours*3600, floor)
}

// EstimateModelByName parses "exact", "actual", or "R=<factor>".
func EstimateModelByName(name string) (EstimateModel, error) {
	switch {
	case name == "keep":
		return Keep{}, nil
	case name == "exact":
		return Exact{}, nil
	case name == "actual":
		return Actual{}, nil
	case strings.HasPrefix(name, "R="):
		r, err := strconv.ParseFloat(strings.TrimPrefix(name, "R="), 64)
		if err != nil || r < 1 {
			return nil, fmt.Errorf("workload: bad overestimation factor in %q", name)
		}
		return Systematic{R: r}, nil
	default:
		return nil, fmt.Errorf("workload: unknown estimate model %q (want keep, exact, actual, or R=<factor>)", name)
	}
}
