package stats

import (
	"math"
	"testing"
)

// sampleMean draws n samples and returns their mean.
func sampleMean(d Dist, r *RNG, n int) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

func TestExponentialMean(t *testing.T) {
	d := Exponential{M: 120}
	if d.Mean() != 120 {
		t.Fatalf("Mean() = %v, want 120", d.Mean())
	}
	got := sampleMean(d, NewRNG(1), 200000)
	if math.Abs(got-120)/120 > 0.02 {
		t.Fatalf("sample mean = %v, want ~120", got)
	}
}

func TestLognormalFromMoments(t *testing.T) {
	for _, tc := range []struct{ mean, cv float64 }{
		{100, 0.5}, {3600, 2}, {10, 0},
	} {
		d := LognormalFromMoments(tc.mean, tc.cv)
		if math.Abs(d.Mean()-tc.mean)/tc.mean > 1e-9 {
			t.Errorf("mean=%v cv=%v: analytic mean %v", tc.mean, tc.cv, d.Mean())
		}
		got := sampleMean(d, NewRNG(2), 400000)
		tol := 0.05 * (1 + tc.cv) // higher-variance needs looser tolerance
		if math.Abs(got-tc.mean)/tc.mean > tol {
			t.Errorf("mean=%v cv=%v: sample mean %v", tc.mean, tc.cv, got)
		}
	}
}

func TestLognormalFromMomentsPanics(t *testing.T) {
	for _, tc := range []struct{ mean, cv float64 }{{0, 1}, {-5, 1}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LognormalFromMoments(%v,%v): expected panic", tc.mean, tc.cv)
				}
			}()
			LognormalFromMoments(tc.mean, tc.cv)
		}()
	}
}

func TestHyperExpMean(t *testing.T) {
	d := HyperExp{P: 0.8, M1: 10, M2: 1000}
	want := 0.8*10 + 0.2*1000
	if math.Abs(d.Mean()-want) > 1e-9 {
		t.Fatalf("Mean() = %v, want %v", d.Mean(), want)
	}
	got := sampleMean(d, NewRNG(5), 400000)
	if math.Abs(got-want)/want > 0.03 {
		t.Fatalf("sample mean = %v, want ~%v", got, want)
	}
}

func TestUniformDist(t *testing.T) {
	d := Uniform{Lo: 5, Hi: 15}
	if d.Mean() != 10 {
		t.Fatalf("Mean() = %v", d.Mean())
	}
	r := NewRNG(6)
	for i := 0; i < 10000; i++ {
		if v := d.Sample(r); v < 5 || v >= 15 {
			t.Fatalf("sample %v out of range", v)
		}
	}
}

func TestLogUniformDistMean(t *testing.T) {
	d := LogUniformDist{Lo: 1, Hi: math.E}
	want := (math.E - 1) / 1.0
	if math.Abs(d.Mean()-want) > 1e-12 {
		t.Fatalf("Mean() = %v, want %v", d.Mean(), want)
	}
	if (LogUniformDist{Lo: 3, Hi: 3}).Mean() != 3 {
		t.Fatal("degenerate mean wrong")
	}
	got := sampleMean(d, NewRNG(7), 300000)
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("sample mean = %v, want ~%v", got, want)
	}
}

func TestTruncatedStaysInBounds(t *testing.T) {
	d := Truncated{Inner: Exponential{M: 1000}, Lo: 1, Hi: 3600}
	r := NewRNG(8)
	for i := 0; i < 50000; i++ {
		v := d.Sample(r)
		if v < 1 || v > 3600 {
			t.Fatalf("truncated sample %v out of [1,3600]", v)
		}
	}
}

// point is a test distribution that always returns its value.
type point float64

func (p point) Sample(*RNG) float64 { return float64(p) }
func (p point) Mean() float64       { return float64(p) }

func TestTruncatedImpossibleRangeClamps(t *testing.T) {
	// A point mass at 5 truncated to [10, 20] can never resample into
	// range; after the attempt budget it must clamp, not loop forever.
	d := Truncated{Inner: point(5), Lo: 10, Hi: 20}
	if v := d.Sample(NewRNG(9)); v != 10 {
		t.Fatalf("clamped sample = %v, want 10", v)
	}
}

func TestDiscreteErrors(t *testing.T) {
	if _, err := NewDiscrete(nil, nil); err == nil {
		t.Error("empty: want error")
	}
	if _, err := NewDiscrete([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatch: want error")
	}
	if _, err := NewDiscrete([]float64{1}, []float64{-1}); err == nil {
		t.Error("negative weight: want error")
	}
	if _, err := NewDiscrete([]float64{1, 2}, []float64{0, 0}); err == nil {
		t.Error("zero total: want error")
	}
	if _, err := NewDiscrete([]float64{1}, []float64{math.NaN()}); err == nil {
		t.Error("NaN weight: want error")
	}
}

func TestDiscreteFrequencies(t *testing.T) {
	d := MustDiscrete([]float64{1, 2, 4, 8}, []float64{4, 3, 2, 1})
	r := NewRNG(10)
	counts := map[float64]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	want := map[float64]float64{1: 0.4, 2: 0.3, 4: 0.2, 8: 0.1}
	for v, p := range want {
		got := float64(counts[v]) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("value %v frequency %v, want ~%v", v, got, p)
		}
	}
}

func TestDiscreteZeroWeightNeverSampled(t *testing.T) {
	d := MustDiscrete([]float64{1, 2, 3}, []float64{1, 0, 1})
	r := NewRNG(11)
	for i := 0; i < 50000; i++ {
		if d.Sample(r) == 2 {
			t.Fatal("sampled zero-weight value")
		}
	}
}

func TestDiscreteMean(t *testing.T) {
	d := MustDiscrete([]float64{2, 4}, []float64{1, 3})
	if got, want := d.Mean(), 3.5; got != want {
		t.Fatalf("Mean() = %v, want %v", got, want)
	}
}

func TestMustDiscretePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustDiscrete(nil, nil)
}

func TestMixture(t *testing.T) {
	m := MustMixture([]Dist{point(1), point(100)}, []float64{3, 1})
	if got, want := m.Mean(), 0.75*1+0.25*100; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Mean() = %v, want %v", got, want)
	}
	r := NewRNG(12)
	ones := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if m.Sample(r) == 1 {
			ones++
		}
	}
	if got := float64(ones) / n; math.Abs(got-0.75) > 0.01 {
		t.Fatalf("component-1 frequency %v, want ~0.75", got)
	}
}

func TestMixtureErrors(t *testing.T) {
	if _, err := NewMixture(nil, nil); err == nil {
		t.Error("empty: want error")
	}
	if _, err := NewMixture([]Dist{point(0)}, []float64{1, 2}); err == nil {
		t.Error("mismatch: want error")
	}
	if _, err := NewMixture([]Dist{point(0)}, []float64{-1}); err == nil {
		t.Error("negative weight: want error")
	}
}

func TestMustMixturePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustMixture(nil, nil)
}
