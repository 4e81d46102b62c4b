package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Variance() != 0 || a.Min() != 0 || a.Max() != 0 || a.Sum() != 0 {
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
	if a.Sum() != 40 {
		t.Fatalf("Sum = %v", a.Sum())
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

func TestAccumulatorCV(t *testing.T) {
	var a Accumulator
	a.Add(0)
	a.Add(0)
	if a.CV() != 0 {
		t.Fatal("CV with zero mean should be 0")
	}
	var b Accumulator
	b.Add(1)
	b.Add(3)
	want := b.StdDev() / 2
	if math.Abs(b.CV()-want) > 1e-12 {
		t.Fatalf("CV = %v, want %v", b.CV(), want)
	}
}

func TestAccumulatorMergeMatchesSequential(t *testing.T) {
	f := func(xs, ys []float64) bool {
		clean := func(in []float64) []float64 {
			out := in[:0]
			for _, v := range in {
				if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
					out = append(out, v)
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var seq, a, b Accumulator
		for _, v := range xs {
			seq.Add(v)
			a.Add(v)
		}
		for _, v := range ys {
			seq.Add(v)
			b.Add(v)
		}
		a.Merge(&b)
		if a.N() != seq.N() {
			return false
		}
		if seq.N() == 0 {
			return true
		}
		closef := func(x, y float64) bool {
			return math.Abs(x-y) <= 1e-6*(1+math.Abs(x)+math.Abs(y))
		}
		return closef(a.Mean(), seq.Mean()) &&
			closef(a.Variance(), seq.Variance()) &&
			a.Min() == seq.Min() && a.Max() == seq.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulatorMergeEmpties(t *testing.T) {
	var a, b Accumulator
	a.Add(5)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 1 || a.Mean() != 5 {
		t.Fatal("merge with empty changed accumulator")
	}
	var c Accumulator
	c.Merge(&a) // merging into empty copies
	if c.N() != 1 || c.Mean() != 5 || c.Min() != 5 {
		t.Fatal("merge into empty did not copy")
	}
}

func TestMeanMax(t *testing.T) {
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty slice should give 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Max([]float64{3, -1, 7, 2}); got != 7 {
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

func TestHistogram(t *testing.T) {
	h, err := NewHistogram([]float64{0, 10, 100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 5, 10, 99, 100, 999, 1000, 5000} {
		h.Add(x)
	}
	if h.Under != 1 {
		t.Errorf("Under = %d, want 1", h.Under)
	}
	if h.Over != 2 {
		t.Errorf("Over = %d, want 2 (1000 is at the last edge)", h.Over)
	}
	wantCounts := []int64{3, 2, 2} // [0,10): 0,5 ... wait 10 goes to bin 1
	// bins: [0,10): {0,5} = 2;  [10,100): {10,99} = 2;  [100,1000): {100,999} = 2
	wantCounts = []int64{2, 2, 2}
	for i, w := range wantCounts {
		if h.Counts[i] != w {
			t.Errorf("Counts[%d] = %d, want %d", i, h.Counts[i], w)
		}
	}
	if h.Total() != 6 {
		t.Errorf("Total = %d, want 6", h.Total())
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram([]float64{1}); err == nil {
		t.Error("single edge: want error")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Error("non-increasing edges: want error")
	}
	if _, err := NewHistogram([]float64{2, 1}); err == nil {
		t.Error("decreasing edges: want error")
	}
}

func TestHistogramEdgeAssignment(t *testing.T) {
	h, err := NewHistogram([]float64{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	h.Add(1) // exactly on interior edge: belongs to [1,2)
	if h.Counts[0] != 0 || h.Counts[1] != 1 {
		t.Fatalf("edge value landed in wrong bin: %v", h.Counts)
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
