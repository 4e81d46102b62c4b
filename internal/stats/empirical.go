package stats

import (
	"fmt"
	"math"
	"sort"
)

// Empirical resamples from an observed data set: each draw picks a stored
// observation uniformly, with optional jitter between adjacent order
// statistics so the support is not limited to the exact observed values.
// It is the workhorse of workload fitting (model a machine's future from
// its own log).
type Empirical struct {
	sorted []float64
	smooth bool
}

// NewEmpirical builds an empirical distribution from observations. With
// smooth true, draws interpolate uniformly between adjacent sorted
// observations instead of returning exact values.
func NewEmpirical(observations []float64, smooth bool) (*Empirical, error) {
	if len(observations) == 0 {
		return nil, fmt.Errorf("stats: NewEmpirical with no observations")
	}
	s := append([]float64(nil), observations...)
	sort.Float64s(s)
	return &Empirical{sorted: s, smooth: smooth}, nil
}

// Sample draws one resampled observation.
func (e *Empirical) Sample(r *RNG) float64 {
	i := r.Intn(len(e.sorted))
	v := e.sorted[i]
	if !e.smooth || len(e.sorted) == 1 {
		return v
	}
	// Interpolate toward a random neighbour, staying inside the observed
	// range.
	if i+1 < len(e.sorted) {
		return v + r.Float64()*(e.sorted[i+1]-v)
	}
	return v
}

// Mean returns the sample mean of the observations.
func (e *Empirical) Mean() float64 {
	sum := 0.0
	for _, v := range e.sorted {
		sum += v
	}
	return sum / float64(len(e.sorted))
}

// Reservoir maintains a fixed-size uniform random sample of a stream
// (Vitter's algorithm R), so traces of any length fit in bounded memory
// before being handed to NewEmpirical.
type Reservoir struct {
	cap  int
	seen int64
	data []float64
	rng  *RNG
}

// NewReservoir returns a reservoir holding at most capacity observations,
// sampling decisions driven by the given seed.
func NewReservoir(capacity int, seed int64) (*Reservoir, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("stats: NewReservoir capacity %d", capacity)
	}
	return &Reservoir{cap: capacity, rng: NewRNG(seed)}, nil
}

// Add offers one observation to the reservoir.
func (r *Reservoir) Add(x float64) {
	r.seen++
	if len(r.data) < r.cap {
		r.data = append(r.data, x)
		return
	}
	// Replace a random element with probability cap/seen.
	if i := r.rng.Int63() % r.seen; i < int64(r.cap) {
		r.data[i] = x
	}
}

// Sample returns a copy of the current reservoir contents.
func (r *Reservoir) Sample() []float64 {
	return append([]float64(nil), r.data...)
}

// NormalCI returns the half-width of a ~95 % confidence interval for the
// mean of the accumulated observations (1.96 σ/√n). Zero for fewer than
// two observations.
func NormalCI(a *Accumulator) float64 {
	if a.N() < 2 {
		return 0
	}
	return 1.96 * a.StdDev() / math.Sqrt(float64(a.N()))
}
