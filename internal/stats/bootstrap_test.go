package stats

import (
	"math"
	"testing"
)

func TestBootstrapMeanCIErrors(t *testing.T) {
	if _, err := BootstrapMeanCI(nil, 100, 0.95, 1); err == nil {
		t.Error("empty input should error")
	}
	if _, err := BootstrapMeanCI([]float64{1}, 5, 0.95, 1); err == nil {
		t.Error("too few iterations should error")
	}
	for _, lvl := range []float64{0, 1, -0.5, 1.5} {
		if _, err := BootstrapMeanCI([]float64{1, 2}, 100, lvl, 1); err == nil {
			t.Errorf("level %v should error", lvl)
		}
	}
}

func TestBootstrapMeanCICoversTrueMean(t *testing.T) {
	r := NewRNG(5)
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = 10 + r.NormFloat64()*3
	}
	ci, err := BootstrapMeanCI(xs, 2000, 0.95, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lo > 10 || ci.Hi < 10 {
		t.Fatalf("CI %v does not cover the true mean 10", ci)
	}
	if ci.Hi-ci.Lo > 1.5 {
		t.Fatalf("CI %v implausibly wide for n=400, sd=3", ci)
	}
	if math.Abs(ci.Mean-Mean(xs)) > 1e-12 {
		t.Fatal("CI mean should be the sample mean")
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	xs := []float64{1, 5, 2, 9, 3, 7}
	a, err := BootstrapMeanCI(xs, 500, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BootstrapMeanCI(xs, 500, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same seed should give identical intervals")
	}
}

func TestBootstrapExcludesZero(t *testing.T) {
	pos := BootstrapCI{Lo: 0.5, Hi: 2}
	neg := BootstrapCI{Lo: -2, Hi: -0.5}
	spans := BootstrapCI{Lo: -1, Hi: 1}
	if !pos.ExcludesZero() || !neg.ExcludesZero() || spans.ExcludesZero() {
		t.Fatal("ExcludesZero wrong")
	}
}

func TestBootstrapDegenerate(t *testing.T) {
	ci, err := BootstrapMeanCI([]float64{4, 4, 4}, 100, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lo != 4 || ci.Hi != 4 || ci.Mean != 4 {
		t.Fatalf("constant input CI = %v", ci)
	}
}

func TestBootstrapStringMentionsBounds(t *testing.T) {
	ci := BootstrapCI{Mean: 1.5, Lo: 1, Hi: 2}
	if got := ci.String(); got != "1.500 [1.000, 2.000]" {
		t.Fatalf("String = %q", got)
	}
}
