package stats

import (
	"fmt"
	"math"
	"sort"
)

// Dist is a continuous probability distribution that can be sampled with an
// explicit generator. Implementations must be pure: the same RNG stream
// yields the same sample sequence.
type Dist interface {
	// Sample draws one variate.
	Sample(r *RNG) float64
	// Mean returns the distribution's expected value (may be +Inf).
	Mean() float64
}

// Exponential is an exponential distribution with the given mean (1/rate).
type Exponential struct {
	M float64 // mean, must be > 0
}

// Sample draws an exponential variate.
func (d Exponential) Sample(r *RNG) float64 { return d.M * r.ExpFloat64() }

// Mean returns the configured mean.
func (d Exponential) Mean() float64 { return d.M }

// Lognormal is a lognormal distribution: exp(N(Mu, Sigma^2)).
type Lognormal struct {
	Mu    float64 // mean of the underlying normal
	Sigma float64 // stddev of the underlying normal, must be >= 0
}

// Sample draws a lognormal variate.
func (d Lognormal) Sample(r *RNG) float64 {
	return math.Exp(d.Mu + d.Sigma*r.NormFloat64())
}

// Mean returns exp(Mu + Sigma^2/2).
func (d Lognormal) Mean() float64 { return math.Exp(d.Mu + d.Sigma*d.Sigma/2) }

// LognormalFromMoments builds a Lognormal whose sample mean and coefficient
// of variation (stddev/mean) match the arguments. mean must be positive and
// cv non-negative.
func LognormalFromMoments(mean, cv float64) Lognormal {
	if mean <= 0 {
		panic("stats: LognormalFromMoments requires mean > 0")
	}
	if cv < 0 {
		panic("stats: LognormalFromMoments requires cv >= 0")
	}
	sigma2 := math.Log(1 + cv*cv)
	return Lognormal{
		Mu:    math.Log(mean) - sigma2/2,
		Sigma: math.Sqrt(sigma2),
	}
}

// HyperExp is a two-phase hyper-exponential distribution: with probability P
// the sample is exponential with mean M1, otherwise exponential with mean M2.
// Hyper-exponentials model the high-variance runtime mixes seen in
// supercomputer traces (many short jobs, a heavy tail of long ones).
type HyperExp struct {
	P      float64 // probability of phase 1, in [0,1]
	M1, M2 float64 // phase means, must be > 0
}

// Sample draws a hyper-exponential variate.
func (d HyperExp) Sample(r *RNG) float64 {
	if r.Bool(d.P) {
		return d.M1 * r.ExpFloat64()
	}
	return d.M2 * r.ExpFloat64()
}

// Mean returns P*M1 + (1-P)*M2.
func (d HyperExp) Mean() float64 { return d.P*d.M1 + (1-d.P)*d.M2 }

// Uniform is a continuous uniform distribution over [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample draws a uniform variate.
func (d Uniform) Sample(r *RNG) float64 { return r.Range(d.Lo, d.Hi) }

// Mean returns the midpoint.
func (d Uniform) Mean() float64 { return (d.Lo + d.Hi) / 2 }

// LogUniformDist is log-uniform over [Lo, Hi): equal mass per decade.
type LogUniformDist struct {
	Lo, Hi float64 // 0 < Lo <= Hi
}

// Sample draws a log-uniform variate.
func (d LogUniformDist) Sample(r *RNG) float64 { return r.LogUniform(d.Lo, d.Hi) }

// Mean returns (Hi-Lo)/ln(Hi/Lo), the analytic mean of a log-uniform.
func (d LogUniformDist) Mean() float64 {
	if d.Lo == d.Hi {
		return d.Lo
	}
	return (d.Hi - d.Lo) / math.Log(d.Hi/d.Lo)
}

// Truncated clamps an inner distribution to [Lo, Hi] by resampling (up to a
// bounded number of attempts, then clamping). Truncation is how the workload
// models keep "short" runtimes strictly under the one-hour category boundary
// and "long" runtimes above it.
type Truncated struct {
	Inner  Dist
	Lo, Hi float64
}

// Sample draws from Inner until the value lands in [Lo, Hi], clamping after
// 64 failed attempts so sampling always terminates.
func (d Truncated) Sample(r *RNG) float64 {
	for i := 0; i < 64; i++ {
		v := d.Inner.Sample(r)
		if v >= d.Lo && v <= d.Hi {
			return v
		}
	}
	v := d.Inner.Sample(r)
	return math.Min(math.Max(v, d.Lo), d.Hi)
}

// Mean returns the inner mean clamped to the truncation bounds. This is an
// approximation: exact truncated moments are not needed by any caller.
func (d Truncated) Mean() float64 {
	return math.Min(math.Max(d.Inner.Mean(), d.Lo), d.Hi)
}

// Discrete is a finite distribution over arbitrary values with explicit
// weights. It is used for processor-count (width) distributions, which in
// real traces concentrate on powers of two.
type Discrete struct {
	values  []float64
	cum     []float64 // cumulative weights, last element is the total
	weights []float64
}

// NewDiscrete builds a Discrete from parallel slices of values and positive
// weights. It returns an error if the slices mismatch, are empty, or any
// weight is negative or the total is zero.
func NewDiscrete(values, weights []float64) (*Discrete, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("stats: NewDiscrete with no values")
	}
	if len(values) != len(weights) {
		return nil, fmt.Errorf("stats: NewDiscrete values/weights length mismatch: %d vs %d", len(values), len(weights))
	}
	d := &Discrete{
		values:  append([]float64(nil), values...),
		weights: append([]float64(nil), weights...),
		cum:     make([]float64, len(weights)),
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("stats: NewDiscrete weight %d is invalid: %v", i, w)
		}
		total += w
		d.cum[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("stats: NewDiscrete total weight is zero")
	}
	return d, nil
}

// MustDiscrete is NewDiscrete that panics on error, for static tables.
func MustDiscrete(values, weights []float64) *Discrete {
	d, err := NewDiscrete(values, weights)
	if err != nil {
		panic(err)
	}
	return d
}

// Sample draws one of the configured values with probability proportional to
// its weight.
func (d *Discrete) Sample(r *RNG) float64 {
	total := d.cum[len(d.cum)-1]
	u := r.Float64() * total
	i := sort.SearchFloat64s(d.cum, u)
	if i >= len(d.values) {
		i = len(d.values) - 1
	}
	// SearchFloat64s finds the first cum >= u; when u equals a boundary we
	// may land one short because Float64 can return exactly 0.
	for i < len(d.cum)-1 && d.cum[i] == u && d.weights[i] == 0 {
		i++
	}
	return d.values[i]
}

// Mean returns the weighted average of the values.
func (d *Discrete) Mean() float64 {
	total := d.cum[len(d.cum)-1]
	sum := 0.0
	for i, v := range d.values {
		sum += v * d.weights[i]
	}
	return sum / total
}

// Mixture samples from one of several component distributions chosen by
// weight. It generalises HyperExp to arbitrary components and is used by the
// user-estimate inaccuracy model (a spike of exact estimates mixed with a
// body of padded ones).
type Mixture struct {
	components []Dist
	weights    *Discrete
}

// NewMixture builds a mixture over components with the given positive
// weights.
func NewMixture(components []Dist, weights []float64) (*Mixture, error) {
	if len(components) == 0 {
		return nil, fmt.Errorf("stats: NewMixture with no components")
	}
	if len(components) != len(weights) {
		return nil, fmt.Errorf("stats: NewMixture components/weights length mismatch: %d vs %d", len(components), len(weights))
	}
	idx := make([]float64, len(components))
	for i := range idx {
		idx[i] = float64(i)
	}
	w, err := NewDiscrete(idx, weights)
	if err != nil {
		return nil, err
	}
	return &Mixture{components: append([]Dist(nil), components...), weights: w}, nil
}

// MustMixture is NewMixture that panics on error, for static tables.
func MustMixture(components []Dist, weights []float64) *Mixture {
	m, err := NewMixture(components, weights)
	if err != nil {
		panic(err)
	}
	return m
}

// Sample picks a component by weight and samples it.
func (m *Mixture) Sample(r *RNG) float64 {
	i := int(m.weights.Sample(r))
	return m.components[i].Sample(r)
}

// Mean returns the weighted average of the component means.
func (m *Mixture) Mean() float64 {
	total := m.weights.cum[len(m.weights.cum)-1]
	sum := 0.0
	for i, c := range m.components {
		sum += c.Mean() * m.weights.weights[i]
	}
	return sum / total
}
