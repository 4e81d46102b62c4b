package stats

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Accumulator computes running descriptive statistics using Welford's
// algorithm, so means and variances stay numerically stable over millions of
// samples without storing them. The zero value is an empty accumulator ready
// to use.
type Accumulator struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean, or 0 for an empty accumulator.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest observation, or 0 when empty.
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return 0
	}
	return a.min
}

// Max returns the largest observation, or 0 when empty.
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return 0
	}
	return a.max
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It copies and sorts internally; for
// repeated queries use Percentiles. Returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return PercentileSorted(s, p)
}

// Percentiles returns the percentiles ps of xs, sorting once.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, p := range ps {
		out[i] = PercentileSorted(s, p)
	}
	return out
}

// PercentileSorted is Percentile over s already sorted ascending, read in
// place: a caller that sorts its own buffer skips Percentile's copy. s must
// not be empty.
func PercentileSorted(s []float64, p float64) float64 {
	lo, hi, frac := percentileRanks(len(s), p)
	if lo == hi {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[hi]*frac
}

// PercentileSelect is PercentileSorted over s sorted ascending, found by
// selection instead of a sort: it reorders s in place, allocates nothing
// and takes expected linear time. It reads the same two order statistics
// and interpolates them the same way, so its result is PercentileSorted's
// for a sorted copy of s, bit for bit. s must not be empty.
func PercentileSelect(s []float64, p float64) float64 {
	lo, hi, frac := percentileRanks(len(s), p)
	selectNth(s, lo)
	if lo == hi {
		return s[lo]
	}
	// Nothing in s[hi:] is below s[lo]; the least of them is the next
	// order statistic.
	next := s[hi]
	for _, x := range s[hi+1:] {
		if x < next {
			next = x
		}
	}
	return s[lo]*(1-frac) + next*frac
}

// percentileRanks returns where PercentileSorted reads n sorted values for
// p: s[lo]·(1−frac) + s[hi]·frac, or s[lo] alone when lo == hi.
func percentileRanks(n int, p float64) (lo, hi int, frac float64) {
	if p <= 0 {
		return 0, 0, 0
	}
	if p >= 100 {
		return n - 1, n - 1, 0
	}
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	hi = int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// selectNth reorders s so that s[k] holds what sort.Float64s would put
// there, nothing before it greater and nothing after it less. NaNs, which
// sort first, are moved to the front; the rest is Hoare's quickselect with
// a median-of-three pivot, whose scans stop at values equal to the pivot,
// so runs of equal values (a group's many slowdowns of exactly 1) split
// evenly instead of unbalancing it. A search that outlives its budget of
// partitions sorts what is left.
func selectNth(s []float64, k int) {
	lo, hi := 0, len(s)
	for i, x := range s {
		if x != x {
			s[lo], s[i] = x, s[lo]
			lo++
		}
	}
	if k < lo {
		return
	}
	for budget := 2 * bits.Len(uint(len(s))); hi-lo > 16 && budget > 0; budget-- {
		pivot := median3(s[lo], s[lo+(hi-lo)/2], s[hi-1])
		i, j := lo, hi-1
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for pivot < s[j] {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo:j+1] ≤ pivot, s[j+1:i] = pivot, s[i:hi] ≥ pivot.
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return
		}
	}
	slices.Sort(s[lo:hi])
}

// median3 returns the middle of three values.
func median3(a, b, c float64) float64 {
	if b < a {
		a, b = b, a
	}
	if c < b {
		b = max(a, c)
	}
	return b
}
