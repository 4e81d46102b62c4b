// Package stats provides the deterministic statistical substrate for the
// backfilling simulator: a seedable random source, the probability
// distributions used by the synthetic workload models (exponential,
// lognormal, hyper-exponential, discrete, log-uniform, mixtures and
// empirical resampling), descriptive statistics (running moments,
// percentiles) used by the metrics layer, and the confidence intervals
// and two-sample KS test the experiments report.
//
// Everything in this package is deterministic given a seed, which is what
// makes the paper's experiments exactly reproducible from run to run.
package stats

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random number generator. It wraps math/rand with an
// explicit, mandatory seed so simulations never silently depend on global
// state. The zero value is not usable; use NewRNG.
type RNG struct {
	src *rand.Rand
}

// NewRNG returns a generator seeded with seed. Two RNGs constructed with the
// same seed produce identical streams.
func NewRNG(seed int64) *RNG {
	return &RNG{src: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent generator from r's stream. Forked generators
// let one logical component (e.g. the runtime sampler) consume randomness
// without perturbing another (e.g. the arrival sampler), so adding draws to
// one does not shift the other.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.src.Int63())
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Int63 returns a uniform non-negative 63-bit integer.
func (r *RNG) Int63() int64 { return r.src.Int63() }

// NormFloat64 returns a standard normal variate.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// ExpFloat64 returns an exponential variate with mean 1.
func (r *RNG) ExpFloat64() float64 { return r.src.ExpFloat64() }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// Range returns a uniform value in [lo, hi). It panics if hi < lo.
func (r *RNG) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("stats: Range with hi < lo")
	}
	return lo + (hi-lo)*r.src.Float64()
}

// IntRange returns a uniform integer in [lo, hi] inclusive.
// It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("stats: IntRange with hi < lo")
	}
	return lo + r.src.Intn(hi-lo+1)
}

// LogUniform returns a value in [lo, hi) whose logarithm is uniformly
// distributed, i.e. each decade carries equal probability mass. Both bounds
// must be positive and lo <= hi.
func (r *RNG) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic("stats: LogUniform requires 0 < lo <= hi")
	}
	if lo == hi {
		return lo
	}
	return math.Exp(r.Range(math.Log(lo), math.Log(hi)))
}
