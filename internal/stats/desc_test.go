package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Variance() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Fatal("empty accumulator not all-zero")
	}
}

func TestAccumulatorBasic(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if got := a.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Population variance is 4; sample variance = 32/7.
	if got, want := a.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3)
	if a.Variance() != 0 || a.StdDev() != 0 {
		t.Fatal("single observation should have zero variance")
	}
	if a.Min() != 3 || a.Max() != 3 {
		t.Fatal("single observation min/max wrong")
	}
}

func TestMeanMax(t *testing.T) {
	var a Accumulator
	if Mean(nil) != 0 || a.Max() != 0 {
		t.Fatal("empty input should give 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	for _, x := range []float64{3, -1, 7, 2} {
		a.Add(x)
	}
	if got := a.Max(); got != 7 {
		t.Fatalf("Max = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {-5, 15}, {110, 50},
		{40, 32}, // rank 1.6 -> 20 + 0.6*(35-20) = 29... recompute below
	}
	// p=40: rank = 0.4*4 = 1.6 -> 20*(0.4) + 35*(0.6) = 8 + 21 = 29.
	cases[6].want = 29
	for _, tc := range cases {
		if got := Percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got := Percentiles(xs, 0, 50, 100)
	want := []float64{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Percentiles = %v, want %v", got, want)
		}
	}
	if out := Percentiles(nil, 50, 90); out[0] != 0 || out[1] != 0 {
		t.Fatal("empty Percentiles should be zeros")
	}
}

func TestPercentileSortedAgainstNaive(t *testing.T) {
	r := NewRNG(20)
	f := func(n uint8, p uint8) bool {
		if n == 0 {
			return true
		}
		xs := make([]float64, int(n)%50+1)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		pct := float64(p % 101)
		v := Percentile(xs, pct)
		// The result must be within [min, max].
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPercentileSelectMatchesSorted holds PercentileSelect to
// PercentileSorted over a sorted copy, bit for bit: every n from 1 to 64
// and some past the selection's small-range cutoff, values from ranges
// small enough that duplicates are common (one draw in eight is exactly 1,
// as most bounded slowdowns are), NaNs (which sort.Float64s puts first) in
// one case, and each query asked again of a slice an earlier query
// reordered, as metrics asks for a median after a 95th percentile.
func TestPercentileSelectMatchesSorted(t *testing.T) {
	r := NewRNG(38)
	ps := []float64{0, 50, 95, 100, 33.3}
	sizes := []int{100, 257, 1000, 4099}
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for _, spread := range []int{0, 2, 10, 1 << 20} {
			xs := make([]float64, n)
			for i := range xs {
				switch {
				case spread == 0 && r.Intn(4) == 0:
					xs[i] = math.NaN() // sorts first
				case spread == 0 || r.Intn(8) == 0:
					xs[i] = 1
				default:
					xs[i] = float64(r.Intn(spread)) / 4
				}
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, p := range ps {
				for _, q := range ps {
					s := append([]float64(nil), xs...)
					PercentileSelect(s, q) // reorders s
					got, want := PercentileSelect(s, p), PercentileSorted(sorted, p)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d spread=%d p=%v after p=%v: select %v, sorted %v", n, spread, p, q, got, want)
					}
				}
			}
		}
	}
}

// TestPercentileSelectAllocs pins the selection at zero allocations.
func TestPercentileSelectAllocs(t *testing.T) {
	r := NewRNG(7)
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	if got := testing.AllocsPerRun(20, func() { PercentileSelect(xs, 95) }); got != 0 {
		t.Fatalf("PercentileSelect allocates %.1f times, want 0", got)
	}
}
