package stats

import (
	"fmt"
	"sort"
)

// BootstrapCI is a percentile-bootstrap confidence interval for a mean.
type BootstrapCI struct {
	Mean     float64
	Lo, Hi   float64 // the interval bounds
	Level    float64 // e.g. 0.95
	Resample int     // bootstrap iterations used
}

// ExcludesZero reports whether the interval lies entirely on one side of
// zero — the usual significance read-out for a paired difference.
func (c BootstrapCI) ExcludesZero() bool {
	return c.Lo > 0 || c.Hi < 0
}

// String renders the interval compactly.
func (c BootstrapCI) String() string {
	return fmt.Sprintf("%.3f [%.3f, %.3f]", c.Mean, c.Lo, c.Hi)
}

// BootstrapMeanCI estimates a confidence interval for the mean of xs by
// percentile bootstrap with iters resamples at the given level (0 < level
// < 1), deterministically for a seed. Paired scheduler comparisons feed
// per-job differences through this: unlike a normal approximation it
// survives the wildly skewed slowdown distributions schedulers produce.
func BootstrapMeanCI(xs []float64, iters int, level float64, seed int64) (BootstrapCI, error) {
	if len(xs) == 0 {
		return BootstrapCI{}, fmt.Errorf("stats: BootstrapMeanCI with no observations")
	}
	if iters < 10 {
		return BootstrapCI{}, fmt.Errorf("stats: BootstrapMeanCI with %d iterations (need >= 10)", iters)
	}
	if level <= 0 || level >= 1 {
		return BootstrapCI{}, fmt.Errorf("stats: BootstrapMeanCI level %v out of (0,1)", level)
	}
	r := NewRNG(seed)
	n := len(xs)
	means := make([]float64, iters)
	for it := 0; it < iters; it++ {
		sum := 0.0
		for k := 0; k < n; k++ {
			sum += xs[r.Intn(n)]
		}
		means[it] = sum / float64(n)
	}
	sort.Float64s(means)
	alpha := (1 - level) / 2
	lo := means[int(alpha*float64(iters))]
	hiIdx := int((1 - alpha) * float64(iters))
	if hiIdx >= iters {
		hiIdx = iters - 1
	}
	hi := means[hiIdx]
	return BootstrapCI{
		Mean:     Mean(xs),
		Lo:       lo,
		Hi:       hi,
		Level:    level,
		Resample: iters,
	}, nil
}
