package stats

import (
	"math"
	"testing"
)

func TestNewEmpiricalErrors(t *testing.T) {
	if _, err := NewEmpirical(nil, false); err == nil {
		t.Fatal("empty observations should error")
	}
}

func TestEmpiricalExactResampling(t *testing.T) {
	obs := []float64{1, 5, 9}
	e, err := NewEmpirical(obs, false)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(1)
	allowed := map[float64]bool{1: true, 5: true, 9: true}
	seen := map[float64]bool{}
	for i := 0; i < 10000; i++ {
		v := e.Sample(r)
		if !allowed[v] {
			t.Fatalf("non-observed value %v from exact resampler", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Fatalf("only saw %d of 3 values", len(seen))
	}
}

func TestEmpiricalSmoothStaysInRange(t *testing.T) {
	e, err := NewEmpirical([]float64{10, 20, 30}, true)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(2)
	interpolated := false
	for i := 0; i < 10000; i++ {
		v := e.Sample(r)
		if v < 10 || v > 30 {
			t.Fatalf("smooth sample %v out of observed range", v)
		}
		if v != 10 && v != 20 && v != 30 {
			interpolated = true
		}
	}
	if !interpolated {
		t.Fatal("smooth resampler never interpolated")
	}
}

func TestEmpiricalSingleObservation(t *testing.T) {
	e, err := NewEmpirical([]float64{7}, true)
	if err != nil {
		t.Fatal(err)
	}
	if e.Sample(NewRNG(1)) != 7 {
		t.Fatal("single-observation sample wrong")
	}
}

func TestEmpiricalMean(t *testing.T) {
	e, err := NewEmpirical([]float64{4, 2, 8, 6}, false)
	if err != nil {
		t.Fatal(err)
	}
	if e.Mean() != 5 {
		t.Fatalf("Mean = %v", e.Mean())
	}
}

func TestReservoirSmallStream(t *testing.T) {
	res, err := NewReservoir(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		res.Add(float64(i))
	}
	s := res.Sample()
	if len(s) != 5 {
		t.Fatalf("reservoir kept %d of 5", len(s))
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Each of 1000 stream elements should survive with probability ~10/1000.
	counts := make([]int, 1000)
	const trials = 3000
	for trial := 0; trial < trials; trial++ {
		res, err := NewReservoir(10, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			res.Add(float64(i))
		}
		for _, v := range res.Sample() {
			counts[int(v)]++
		}
	}
	// Expected survival count per element: trials*10/1000 = 30.
	first, last := 0, 0
	for i := 0; i < 100; i++ {
		first += counts[i]
	}
	for i := 900; i < 1000; i++ {
		last += counts[i]
	}
	// Early and late stream positions must be retained at similar rates.
	ratio := float64(first) / float64(last)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("reservoir biased: first/last retention ratio %v", ratio)
	}
}

func TestReservoirErrors(t *testing.T) {
	if _, err := NewReservoir(0, 1); err == nil {
		t.Fatal("zero capacity should error")
	}
}

func TestNormalCI(t *testing.T) {
	var a Accumulator
	if NormalCI(&a) != 0 {
		t.Fatal("empty CI should be 0")
	}
	a.Add(10)
	if NormalCI(&a) != 0 {
		t.Fatal("single-observation CI should be 0")
	}
	for i := 0; i < 99; i++ {
		a.Add(10)
	}
	if NormalCI(&a) != 0 {
		t.Fatal("zero-variance CI should be 0")
	}
	var b Accumulator
	for i := 0; i < 100; i++ {
		b.Add(float64(i % 2)) // variance 0.2525...; sd ~0.5
	}
	want := 1.96 * b.StdDev() / 10
	if math.Abs(NormalCI(&b)-want) > 1e-12 {
		t.Fatalf("CI = %v, want %v", NormalCI(&b), want)
	}
}
