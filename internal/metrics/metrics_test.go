package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestBoundedSlowdown(t *testing.T) {
	cases := []struct {
		wait, rt int64
		want     float64
	}{
		{0, 100, 1},
		{100, 100, 2},
		{50, 100, 1.5},
		{0, 1, 1},    // sub-τ runtime clamps to τ
		{10, 1, 2},   // (10+10)/10 with τ=10
		{90, 5, 10},  // (90+10)/10
		{-5, 100, 1}, // negative wait clamps to 0
		{100, 0, 11}, // zero runtime: (100+10)/10
	}
	for _, tc := range cases {
		if got := BoundedSlowdown(tc.wait, tc.rt); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("BoundedSlowdown(%d,%d) = %v, want %v", tc.wait, tc.rt, got, tc.want)
		}
	}
}

func TestBoundedSlowdownAtLeastOne(t *testing.T) {
	f := func(wait uint32, rt uint32) bool {
		return BoundedSlowdown(int64(wait), int64(rt)) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func mkPlacement(id int, arr, start, rt int64, w int, est int64) sim.Placement {
	j := &job.Job{ID: id, Arrival: arr, Runtime: rt, Estimate: est, Width: w}
	return sim.Placement{Job: j, Start: start, End: start + rt}
}

func TestFromPlacements(t *testing.T) {
	ps := []sim.Placement{
		mkPlacement(1, 0, 50, 100, 4, 100),      // SN, well estimated
		mkPlacement(2, 10, 10, 7200, 16, 30000), // LW, poorly estimated
	}
	outs := FromPlacements(ps, job.PaperThresholds())
	if len(outs) != 2 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	o := outs[0]
	if o.Wait() != 50 || o.Turnaround() != 150 {
		t.Fatalf("outcome 0 = %+v", o)
	}
	if math.Abs(o.Slowdown()-1.5) > 1e-12 {
		t.Fatalf("slowdown = %v", o.Slowdown())
	}
	if o.Category != job.ShortNarrow || o.EstimateQuality() != job.WellEstimated {
		t.Fatalf("classification = %v/%v", o.Category, o.EstimateQuality())
	}
	if outs[1].Category != job.LongWide || outs[1].EstimateQuality() != job.PoorlyEstimated {
		t.Fatalf("classification 1 = %v/%v", outs[1].Category, outs[1].EstimateQuality())
	}
}

// TestOutcomeLayout pins an outcome to a placement plus its category, so a
// field that can be derived from the job and the placement cannot creep back.
func TestOutcomeLayout(t *testing.T) {
	if got, want := unsafe.Sizeof(Outcome{}), unsafe.Sizeof(sim.Placement{})+8; got != want {
		t.Fatalf("Outcome is %d bytes, want %d (a placement and a category)", got, want)
	}
}

// derived is what an outcome used to store beside its placement, computed
// here with the formulas spelled out.
type derived struct {
	wait, delay, turnaround int64
	slowdown                float64
	quality                 job.EstimateQuality
}

func deriveByHand(p sim.Placement) derived {
	j := p.Job
	d := derived{wait: p.Start - j.Arrival, turnaround: p.End - j.Arrival}
	d.delay = d.turnaround - j.Runtime
	if d.delay < 0 {
		d.delay = 0
	}
	bound := j.Runtime
	if bound < SlowdownTau {
		bound = SlowdownTau
	}
	d.slowdown = float64(d.delay+bound) / float64(bound)
	rt := j.Runtime
	if rt < 1 {
		rt = 1
	}
	if float64(j.Estimate) > job.WellEstimatedFactor*float64(rt) {
		d.quality = job.PoorlyEstimated
	}
	return d
}

func checkDerived(t *testing.T, label string, o Outcome, want derived) {
	t.Helper()
	got := derived{o.Wait(), o.Delay(), o.Turnaround(), o.Slowdown(), o.EstimateQuality()}
	if got != want {
		t.Fatalf("%s: methods give %+v, the formulas %+v", label, got, want)
	}
}

// TestOutcomeDerivations holds every derived quantity to its formula: a
// table of the edge cases with the values worked out, then random
// placements against deriveByHand.
func TestOutcomeDerivations(t *testing.T) {
	suspended := mkPlacement(1, 0, 10, 100, 4, 100)
	suspended.End = 250 // preempted: ran 100 s of the 240 after its start
	killed := mkPlacement(6, 0, 0, 100, 1, 50)
	killed.End = 50 // ended before its runtime: the delay clamps to 0
	cases := []struct {
		name string
		p    sim.Placement
		want derived
	}{
		{"preempted", suspended, derived{10, 150, 250, 2.5, job.WellEstimated}},
		{"zero runtime, estimate 2", mkPlacement(2, 5, 25, 0, 1, 2), derived{20, 20, 20, 3, job.WellEstimated}},
		{"zero runtime, estimate 3", mkPlacement(3, 5, 25, 0, 1, 3), derived{20, 20, 20, 3, job.PoorlyEstimated}},
		{"runtime under tau", mkPlacement(4, 0, 40, 5, 1, 11), derived{40, 40, 45, 5, job.PoorlyEstimated}},
		{"no wait", mkPlacement(5, 100, 100, 3600, 16, 7200), derived{0, 0, 3600, 1, job.WellEstimated}},
		{"ended early", killed, derived{0, 0, 50, 1, job.WellEstimated}},
	}
	th := job.PaperThresholds()
	for _, c := range cases {
		if got := deriveByHand(c.p); got != c.want {
			t.Fatalf("%s: the reference gives %+v, want %+v", c.name, got, c.want)
		}
		o := FromPlacements([]sim.Placement{c.p}, th)[0]
		checkDerived(t, c.name, o, c.want)
	}

	r := stats.NewRNG(3)
	ps := make([]sim.Placement, 5000)
	for i := range ps {
		rt := int64(r.Intn(3 * SlowdownTau)) // a third under tau, some zero
		if r.Bool(0.5) {
			rt = int64(r.Intn(20000))
		}
		arr := int64(r.Intn(100000))
		p := mkPlacement(i+1, arr, arr+int64(r.Intn(5000)), rt, r.Intn(128)+1, int64(r.Intn(int(3*rt+3))))
		if r.Bool(0.2) {
			p.End += int64(r.Intn(3000)) // suspended for a while
		}
		ps[i] = p
	}
	for i, o := range FromPlacements(ps, th) {
		if o.Job != ps[i].Job || o.Start != ps[i].Start || o.End != ps[i].End || o.Category != th.Classify(ps[i].Job) {
			t.Fatalf("placement %d: outcome %+v", i, o)
		}
		checkDerived(t, "random", o, deriveByHand(ps[i]))
	}
}

func TestSummarize(t *testing.T) {
	ps := []sim.Placement{
		mkPlacement(1, 0, 0, 100, 1, 100),   // slowdown 1, turnaround 100
		mkPlacement(2, 0, 100, 100, 1, 100), // slowdown 2, turnaround 200
		mkPlacement(3, 0, 300, 100, 1, 100), // slowdown 4, turnaround 400
	}
	s := Summarize(FromPlacements(ps, job.PaperThresholds()))
	if s.N != 3 {
		t.Fatalf("N = %d", s.N)
	}
	if math.Abs(s.MeanSlowdown-(1+2+4)/3.0) > 1e-12 {
		t.Fatalf("MeanSlowdown = %v", s.MeanSlowdown)
	}
	if s.MaxTurnaround != 400 || s.MaxWait != 300 {
		t.Fatalf("max turnaround/wait = %d/%d", s.MaxTurnaround, s.MaxWait)
	}
	if s.MaxSlowdown != 4 {
		t.Fatalf("MaxSlowdown = %v", s.MaxSlowdown)
	}
	if s.MedianSlowdown != 2 || s.MedianTurnaround != 200 {
		t.Fatalf("medians = %v/%v", s.MedianSlowdown, s.MedianTurnaround)
	}
	if math.Abs(s.MeanWait-(0+100+300)/3.0) > 1e-12 {
		t.Fatalf("MeanWait = %v", s.MeanWait)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.MeanSlowdown != 0 || s.MaxTurnaround != 0 {
		t.Fatal("empty summary not zero")
	}
}

func TestAnalyzeCategoriesAndUtilization(t *testing.T) {
	// Two jobs back to back on a 4-proc machine: utilization = work /
	// (4 × makespan) = (100×4 + 100×2) / (4 × 200) = 600/800.
	ps := []sim.Placement{
		mkPlacement(1, 0, 0, 100, 4, 100),
		mkPlacement(2, 0, 100, 100, 2, 100),
	}
	rep := Analyze("test", ps, job.PaperThresholds(), 4)
	if rep.Scheduler != "test" {
		t.Fatal("name lost")
	}
	if rep.Makespan != 200 {
		t.Fatalf("makespan = %d", rep.Makespan)
	}
	if math.Abs(rep.Utilization-600.0/800.0) > 1e-12 {
		t.Fatalf("utilization = %v", rep.Utilization)
	}
	if rep.ByCategory[job.ShortNarrow].N != 2 {
		t.Fatalf("SN count = %d", rep.ByCategory[job.ShortNarrow].N)
	}
	if rep.ByQuality[job.WellEstimated].N != 2 {
		t.Fatalf("well-estimated count = %d", rep.ByQuality[job.WellEstimated].N)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	rep := Analyze("x", nil, job.PaperThresholds(), 4)
	if rep.Overall.N != 0 || rep.Utilization != 0 {
		t.Fatal("empty analyze not zero")
	}
}

func TestSubsetSummary(t *testing.T) {
	ps := []sim.Placement{
		mkPlacement(1, 0, 0, 100, 1, 100),
		mkPlacement(2, 0, 100, 100, 1, 100),
		mkPlacement(3, 0, 300, 100, 1, 100),
	}
	outs := FromPlacements(ps, job.PaperThresholds())
	s := SubsetSummary(outs, map[int]bool{1: true, 3: true})
	if s.N != 2 {
		t.Fatalf("N = %d", s.N)
	}
	if math.Abs(s.MeanSlowdown-(1+4)/2.0) > 1e-12 {
		t.Fatalf("MeanSlowdown = %v", s.MeanSlowdown)
	}
}

func TestPercentChange(t *testing.T) {
	got, err := PercentChange(4, 3)
	if err != nil || math.Abs(got-(-25)) > 1e-12 {
		t.Fatalf("PercentChange = %v, %v", got, err)
	}
	got, err = PercentChange(2, 3)
	if err != nil || math.Abs(got-50) > 1e-12 {
		t.Fatalf("PercentChange = %v, %v", got, err)
	}
	if _, err := PercentChange(0, 1); err == nil {
		t.Fatal("zero base should error")
	}
}

func TestFingerprintEquality(t *testing.T) {
	a := []sim.Placement{
		mkPlacement(1, 0, 0, 100, 1, 100),
		mkPlacement(2, 0, 100, 100, 1, 100),
	}
	// Same schedule, different slice order.
	b := []sim.Placement{a[1], a[0]}
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("fingerprint should be order independent")
	}
	// Different start time changes the fingerprint.
	c := []sim.Placement{
		mkPlacement(1, 0, 0, 100, 1, 100),
		mkPlacement(2, 0, 101, 100, 1, 100),
	}
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatal("fingerprint should detect a moved job")
	}
	if Fingerprint(nil) != Fingerprint([]sim.Placement{}) {
		t.Fatal("empty fingerprints should match")
	}
}

// TestFingerprintDenseMatchesSorted holds the sort-free fingerprint to the
// sorted one: on IDs that are a permutation of one range it must hash the
// same, and on anything else it must decline so the sort runs.
func TestFingerprintDenseMatchesSorted(t *testing.T) {
	place := func(ids ...int) []sim.Placement {
		ps := make([]sim.Placement, len(ids))
		for i, id := range ids {
			ps[i] = mkPlacement(id, 0, int64(100*i+7*id), 50, 1, 50)
		}
		return ps
	}
	shuffled := make([]int, 1000)
	for i := range shuffled {
		shuffled[i] = 101 + (i*389)%1000 // 389 is prime to 1000: a permutation
	}
	cases := []struct {
		name  string
		ps    []sim.Placement
		dense bool
	}{
		{"shuffled", place(shuffled...), true},
		{"one", place(5), true},
		{"negative", place(-1, -3, 0, -2, 1), true},
		{"gap", place(1, 2, 4, 5), false},
		{"duplicate", place(1, 2, 2, 4), false},
		{"duplicate same start", []sim.Placement{mkPlacement(1, 0, 0, 5, 1, 5), mkPlacement(2, 0, 9, 5, 1, 5), mkPlacement(2, 0, 9, 5, 1, 5), mkPlacement(4, 0, 3, 5, 1, 5)}, false},
		{"empty", nil, false},
	}
	for _, c := range cases {
		h, ok := fingerprintDense(c.ps)
		if ok != c.dense {
			t.Errorf("%s: dense path taken = %v, want %v", c.name, ok, c.dense)
		}
		if ok && h != fingerprintSorted(c.ps) {
			t.Errorf("%s: dense fingerprint %#x, sorted %#x", c.name, h, fingerprintSorted(c.ps))
		}
		if got, want := Fingerprint(c.ps), fingerprintSorted(c.ps); got != want {
			t.Errorf("%s: Fingerprint %#x, sorted %#x", c.name, got, want)
		}
	}
}
