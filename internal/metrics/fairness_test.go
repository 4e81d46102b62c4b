package metrics

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/stats"
)

func outcomesWithSlowdowns(slows []float64) []Outcome {
	outs := make([]Outcome, len(slows))
	for i, s := range slows {
		outs[i] = Outcome{
			Job:      &job.Job{ID: i + 1, Runtime: 100, Estimate: 100, Width: 1, User: i % 3},
			Slowdown: s,
			Wait:     int64((s - 1) * 100),
		}
	}
	return outs
}

func TestGiniUniform(t *testing.T) {
	f := ComputeFairness(outcomesWithSlowdowns([]float64{2, 2, 2, 2}))
	if f.GiniSlowdown > 1e-9 {
		t.Fatalf("uniform Gini = %v, want 0", f.GiniSlowdown)
	}
}

func TestGiniConcentrated(t *testing.T) {
	// One job carries everything: Gini approaches (n-1)/n.
	slows := make([]float64, 100)
	slows[0] = 1000
	f := ComputeFairness(outcomesWithSlowdowns(slows))
	if f.GiniSlowdown < 0.95 {
		t.Fatalf("concentrated Gini = %v, want near 1", f.GiniSlowdown)
	}
}

func TestGiniKnownValue(t *testing.T) {
	// {1,3}: mean absolute difference = 2, mean = 2 → G = 2/(2·2) = 0.5·...
	// Exact: G = Σ|xi−xj| / (2n²μ) = (0+2+2+0)/(2·4·2) = 4/16 = 0.25.
	f := ComputeFairness(outcomesWithSlowdowns([]float64{1, 3}))
	if math.Abs(f.GiniSlowdown-0.25) > 1e-9 {
		t.Fatalf("Gini = %v, want 0.25", f.GiniSlowdown)
	}
}

func TestComputeFairnessEmpty(t *testing.T) {
	f := ComputeFairness(nil)
	if f.GiniSlowdown != 0 || f.TailRatio99 != 0 || f.MaxMeanRatio != 0 {
		t.Fatal("empty fairness not zero")
	}
}

func TestTailRatioAndMaxMean(t *testing.T) {
	slows := make([]float64, 100)
	for i := range slows {
		slows[i] = 1
	}
	slows[99] = 101
	f := ComputeFairness(outcomesWithSlowdowns(slows))
	if f.TailRatio99 <= 1 {
		t.Fatalf("TailRatio99 = %v, want > 1", f.TailRatio99)
	}
	mean := (99.0 + 101) / 100
	if math.Abs(f.MaxMeanRatio-101/mean) > 1e-9 {
		t.Fatalf("MaxMeanRatio = %v", f.MaxMeanRatio)
	}
}

func TestByUser(t *testing.T) {
	outs := outcomesWithSlowdowns([]float64{1, 2, 3, 4, 5, 6})
	us := ByUser(outs)
	if len(us) != 3 {
		t.Fatalf("user groups = %d", len(us))
	}
	for i := 1; i < len(us); i++ {
		if us[i].User <= us[i-1].User {
			t.Fatal("user summaries not sorted")
		}
	}
	total := 0
	for _, u := range us {
		total += u.N
	}
	if total != 6 {
		t.Fatalf("user summaries cover %d jobs", total)
	}
	// Users 0,1,2 get jobs {1,4},{2,5},{3,6}.
	if us[0].MeanSlowdown != 2.5 {
		t.Fatalf("user 0 mean = %v", us[0].MeanSlowdown)
	}
}

func TestByUserEmpty(t *testing.T) {
	if len(ByUser(nil)) != 0 {
		t.Fatal("empty ByUser should be empty")
	}
}

func TestTimeline(t *testing.T) {
	ps := []sim.Placement{
		mkPlacement(1, 0, 0, 100, 4, 100),  // busy [0,100)
		mkPlacement(2, 10, 100, 50, 2, 50), // queued [10,100), busy [100,150)
	}
	tl, err := Timeline(ps, 10)
	if err != nil {
		t.Fatal(err)
	}
	at := func(tt int64) TimelinePoint {
		for _, p := range tl {
			if p.Time == tt {
				return p
			}
		}
		t.Fatalf("no sample at %d", tt)
		return TimelinePoint{}
	}
	if p := at(0); p.Busy != 4 || p.Queued != 0 {
		t.Fatalf("t=0: %+v", p)
	}
	if p := at(50); p.Busy != 4 || p.Queued != 1 {
		t.Fatalf("t=50: %+v", p)
	}
	if p := at(100); p.Busy != 2 || p.Queued != 0 {
		t.Fatalf("t=100: %+v", p)
	}
	if p := at(150); p.Busy != 0 {
		t.Fatalf("t=150: %+v", p)
	}
}

func TestTimelineErrors(t *testing.T) {
	if _, err := Timeline(nil, 0); err == nil {
		t.Fatal("zero step should error")
	}
	tl, err := Timeline(nil, 10)
	if err != nil || tl != nil {
		t.Fatal("empty placements should return nil, nil")
	}
}

func TestPeakQueueDepth(t *testing.T) {
	ps := []sim.Placement{
		mkPlacement(1, 0, 0, 1000, 4, 1000),
		mkPlacement(2, 10, 1000, 100, 4, 100),
		mkPlacement(3, 20, 1000, 100, 4, 100),
		mkPlacement(4, 30, 2000, 100, 4, 100),
	}
	// Jobs 2,3,4 all waiting during [30,1000): depth 3.
	if got := PeakQueueDepth(ps); got != 3 {
		t.Fatalf("peak = %d, want 3", got)
	}
	if PeakQueueDepth(nil) != 0 {
		t.Fatal("empty peak should be 0")
	}
}

func TestLossOfCapacity(t *testing.T) {
	// Machine of 4. Job 1 (w2) runs [0,100); job 2 (w4) arrives at 0 but
	// cannot start until 100 (needs the whole machine). During [0,100)
	// the queue is non-empty and 2 processors idle: lost = 100×2. During
	// [100,200) the machine is full and the queue empty: lost 0.
	// Total = 200×4 = 800 → loss = 200/800 = 0.25.
	ps := []sim.Placement{
		mkPlacement(1, 0, 0, 100, 2, 100),
		mkPlacement(2, 0, 100, 100, 4, 100),
	}
	got, err := LossOfCapacity(ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("loss = %v, want 0.25", got)
	}
}

func TestLossOfCapacityNoQueue(t *testing.T) {
	// A lone job: idle capacity with an empty queue is not "lost".
	ps := []sim.Placement{mkPlacement(1, 0, 0, 100, 1, 100)}
	got, err := LossOfCapacity(ps, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("loss = %v, want 0", got)
	}
}

func TestLossOfCapacityErrors(t *testing.T) {
	if _, err := LossOfCapacity(nil, 0); err == nil {
		t.Fatal("zero procs should error")
	}
	got, err := LossOfCapacity(nil, 4)
	if err != nil || got != 0 {
		t.Fatalf("empty schedule: %v, %v", got, err)
	}
}

// lossOfCapacitySorted is LossOfCapacity as one sort of all 3n edges by
// time, starts and ends before arrivals at an instant: the reference the
// merge of three streams must equal.
func lossOfCapacitySorted(ps []sim.Placement, procs int) float64 {
	type edge struct {
		t     int64
		dBusy int
		dQ    int
		kind  int
	}
	var edges []edge
	minT := ps[0].Job.Arrival
	for _, p := range ps {
		edges = append(edges,
			edge{t: p.Job.Arrival, dQ: +1, kind: 1},
			edge{t: p.Start, dBusy: +p.Job.Width, dQ: -1},
			edge{t: p.End, dBusy: -p.Job.Width},
		)
		minT = min(minT, p.Job.Arrival)
	}
	sort.Slice(edges, func(i, k int) bool {
		if edges[i].t != edges[k].t {
			return edges[i].t < edges[k].t
		}
		return edges[i].kind < edges[k].kind
	})
	var lost, total int64
	busy, queued := 0, 0
	prev := minT
	for _, e := range edges {
		if e.t > prev {
			span := e.t - prev
			total += span * int64(procs)
			if queued > 0 {
				lost += span * int64(procs-busy)
			}
			prev = e.t
		}
		busy += e.dBusy
		queued += e.dQ
	}
	if total == 0 {
		return 0
	}
	return float64(lost) / float64(total)
}

// TestLossOfCapacityMatchesSortedEdges: on random schedules whose instants
// collide — arrivals, starts and ends on a coarse grid, a third of the jobs
// starting the instant they arrive, some running zero seconds — and whose
// placements come in random or start order, the merged LossOfCapacity
// equals the sort-everything reference exactly.
func TestLossOfCapacityMatchesSortedEdges(t *testing.T) {
	r := stats.NewRNG(7)
	for trial := range 500 {
		const procs = 16
		ps := make([]sim.Placement, r.Intn(60)+1)
		for i := range ps {
			arr := int64(r.Intn(20)) * 10
			start := arr
			if !r.Bool(1.0 / 3) {
				start += int64(r.Intn(10)) * 10
			}
			ps[i] = mkPlacement(i+1, arr, start, int64(r.Intn(8))*10, r.Intn(procs)+1, 100)
		}
		if trial%2 == 0 {
			slices.SortFunc(ps, func(a, b sim.Placement) int { return cmp.Compare(a.Start, b.Start) })
		}
		got, err := LossOfCapacity(ps, procs)
		if err != nil {
			t.Fatal(err)
		}
		if want := lossOfCapacitySorted(ps, procs); got != want {
			t.Fatalf("trial %d: LossOfCapacity = %v, the sorted edges give %v", trial, got, want)
		}
	}
}

func TestPeakQueueDepthSimultaneous(t *testing.T) {
	// A job starting exactly when another arrives: the start is processed
	// first, so depth never counts both.
	ps := []sim.Placement{
		mkPlacement(1, 0, 5, 10, 1, 10),
		mkPlacement(2, 5, 20, 10, 1, 10),
	}
	if got := PeakQueueDepth(ps); got != 1 {
		t.Fatalf("peak = %d, want 1", got)
	}
}
